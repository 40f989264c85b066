// Package threading provides the thread substrate thin locks depend on.
//
// The paper's algorithm identifies lock owners by a 15-bit *thread index*
// into a table that maps indices to thread structures (§2.3). The index is
// stored pre-shifted by 16 bits in the thread's execution environment so
// the locking fast path needs no extra ALU operation. This package
// reproduces that machinery on top of goroutines: a Thread is an explicit
// handle (the analogue of the JVM execution-environment pointer) that the
// caller threads through lock operations, and a Registry hands out and
// recycles the 15-bit indices.
//
// Every blocked thread parks the same way (park.go): each Thread embeds
// one ParkNode, which the process-wide parking lot files under the
// address of what the thread waits on (an object, or a fat monitor),
// and it sleeps on its own one-permit Parker. So blocking allocates
// nothing.
package threading

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"thinlock/internal/arch"
)

// IndexBits is the width of a thread index in the lock word.
const IndexBits = 15

// MaxThreads is the number of simultaneously attached threads a Registry
// supports. Index 0 is reserved to mean "unlocked", leaving 2^15-1 usable
// indices.
const MaxThreads = 1<<IndexBits - 1

// IndexShift is how far the thread index is shifted within the lock word.
const IndexShift = 16

// ErrTooManyThreads is returned by Attach when all 2^15-1 indices are in
// use.
var ErrTooManyThreads = errors.New("threading: thread index space exhausted")

// ErrInterrupted is returned from blocking operations when the thread's
// interrupt status was set.
var ErrInterrupted = errors.New("threading: interrupted")

// Thread is the per-thread execution environment. All lock operations
// take the acting Thread explicitly; a Thread must only ever be used by
// the goroutine it was attached for.
type Thread struct {
	// shifted is the thread index pre-shifted by IndexShift, exactly as
	// the paper stores it, so the lock fast path ORs it in directly.
	shifted uint32

	// serial numbers every Attach in the process, across registries.
	serial      uint64
	name        string
	registry    *Registry
	interrupted atomic.Bool

	// parker is the thread's one-permit semaphore, made by Attach; node
	// is its place on the parking lot (park.go).
	parker Parker
	node   ParkNode

	// frameMethod/framePC are the interpreter's currently executing
	// method and bytecode pc, published by internal/vm around lock
	// operations so the contention profiler can attribute a slow-path
	// acquisition to its bytecode site. Only the owning goroutine reads
	// or writes them (the same single-goroutine discipline as the rest
	// of the Thread), so plain fields suffice.
	frameMethod string
	framePC     int32
	frameSet    bool

	// spin is the thread's adaptive bound on the bounded spins before
	// a park (arch.SpinBudget); owner only. It sits in frameSet's
	// padding, so the fields around it keep their offsets.
	spin arch.SpinBudget

	// biasSlots holds the thread's lock reservations (see bias.go).
	// Written only by the owning goroutine; read by revoking threads.
	// biasClaimed counts the claimed ones; owner only.
	biasSlots   [BiasSlots]BiasSlot
	biasClaimed int
}

// Index returns the thread's 15-bit index (1..MaxThreads). It is 0 only
// for a zero Thread that was never attached.
func (t *Thread) Index() uint16 { return uint16(t.shifted >> IndexShift) }

// Shifted returns the pre-shifted index, ready to be ORed into a lock
// word.
func (t *Thread) Shifted() uint32 { return t.shifted }

// Serial returns the thread's attach serial: unlike the index, it is
// never reused and is unique across registries, so observers keyed by
// it do not confuse two threads that share an index.
func (t *Thread) Serial() uint64 { return t.serial }

// Name returns the name given at Attach time.
func (t *Thread) Name() string { return t.name }

// Registry returns the registry the thread is attached to, so code
// holding only a thread (e.g. a workload body) can attach helpers.
func (t *Thread) Registry() *Registry { return t.registry }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s#%d)", t.name, t.Index())
}

// Parker returns the thread's parking semaphore.
func (t *Thread) Parker() *Parker { return &t.parker }

// ParkNode returns the thread's park node. Its Count carries the lock
// count a blocked thread restores once it owns the lock again.
func (t *Thread) ParkNode() *ParkNode { return &t.node }

// Spin returns the thread's spin budget, for a lock's bounded spin
// before it parks.
func (t *Thread) Spin() *arch.SpinBudget { return &t.spin }

// Interrupt sets the thread's interrupt status and unparks it. An
// interruptible wait sees the status when it wakes; any other park
// takes the wake as spurious and parks again.
func (t *Thread) Interrupt() {
	t.interrupted.Store(true)
	t.parker.Unpark()
}

// Interrupted reports and clears the thread's interrupt status, like
// java.lang.Thread.interrupted.
func (t *Thread) Interrupted() bool {
	return t.interrupted.Swap(false)
}

// IsInterrupted reports the interrupt status without clearing it.
func (t *Thread) IsInterrupted() bool { return t.interrupted.Load() }

// PublishFrame records the interpreter frame (method name + bytecode pc)
// about to perform a lock operation on this thread, for lock-site
// attribution. Must be called by the owning goroutine and paired with
// ClearFrame.
//
//lockvet:noalloc
func (t *Thread) PublishFrame(method string, pc int32) {
	t.frameMethod = method
	t.framePC = pc
	t.frameSet = true
}

// ClearFrame clears the published interpreter frame.
//
//lockvet:noalloc
func (t *Thread) ClearFrame() {
	t.frameMethod = ""
	t.framePC = 0
	t.frameSet = false
}

// Frame returns the published interpreter frame, if any. Must be called
// by the owning goroutine.
func (t *Thread) Frame() (method string, pc int32, ok bool) {
	return t.frameMethod, t.framePC, t.frameSet
}

// Registry hands out thread indices and maps them back to Threads,
// mirroring the paper's index→thread-pointer table.
type Registry struct {
	mu       sync.Mutex
	threads  []*Thread // index → thread; slot 0 is always nil
	free     []uint16  // recycled indices, LIFO
	attached int

	peakAttached int
	totalAttach  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{threads: make([]*Thread, 1, 64)}
}

// attachSerial hands out Thread.Serial values.
var attachSerial atomic.Uint64

// Attach allocates an index and returns a new Thread for the calling
// goroutine. The returned Thread must be released with Detach when the
// logical thread terminates.
func (r *Registry) Attach(name string) (*Thread, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	var idx uint16
	switch {
	case len(r.free) > 0:
		idx = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case len(r.threads) <= MaxThreads:
		idx = uint16(len(r.threads))
		r.threads = append(r.threads, nil)
	default:
		return nil, ErrTooManyThreads
	}

	t := &Thread{
		shifted:  uint32(idx) << IndexShift,
		serial:   attachSerial.Add(1),
		name:     name,
		registry: r,
		parker:   Parker{ch: make(chan struct{}, 1)},
	}
	t.node.thread = t
	r.threads[idx] = t
	r.attached++
	r.totalAttach++
	if r.attached > r.peakAttached {
		r.peakAttached = r.attached
	}
	return t, nil
}

// Detach releases the thread's index for reuse. The Thread must not be
// used afterwards, and must not hold any locks.
func (r *Registry) Detach(t *Thread) {
	if t == nil || t.shifted == 0 {
		return
	}
	idx := t.Index()
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(idx) >= len(r.threads) || r.threads[idx] != t {
		return // already detached or foreign thread
	}
	r.threads[idx] = nil
	r.free = append(r.free, idx)
	r.attached--
}

// Lookup returns the Thread with the given index, or nil if the index is
// unassigned.
func (r *Registry) Lookup(idx uint16) *Thread {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx == 0 || int(idx) >= len(r.threads) {
		return nil
	}
	return r.threads[idx]
}

// Attached reports the number of currently attached threads.
func (r *Registry) Attached() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attached
}

// Peak reports the maximum number of simultaneously attached threads.
func (r *Registry) Peak() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakAttached
}

// TotalAttached reports the number of Attach calls ever made.
func (r *Registry) TotalAttached() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalAttach
}

// Go attaches a new Thread, runs fn with it on a fresh goroutine, and
// detaches it when fn returns. The returned channel is closed after the
// detach completes.
func (r *Registry) Go(name string, fn func(*Thread)) (<-chan struct{}, error) {
	t, err := r.Attach(name)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer r.Detach(t)
		fn(t)
	}()
	return done, nil
}
