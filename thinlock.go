// Package thinlock is a Go reproduction of "Thin Locks: Featherweight
// Synchronization for Java" (Bacon, Konuru, Murthy, Serrano; PLDI 1998).
//
// It provides Java-style monitors — recursive mutual exclusion plus
// wait/notify/notifyAll — over a simulated JVM object model, implemented
// with the paper's 24-bit lock-word protocol: uncontended locking is one
// compare-and-swap, nested locking and all unlocking are plain loads and
// stores, and contention inflates the lock into a heavy-weight monitor
// exactly once in the object's lifetime.
//
// The two baseline implementations the paper measures against — the Sun
// JDK 1.1.1 monitor cache ("JDK111") and the IBM JDK 1.1.2 hot locks
// ("IBM112") — are available through the same Runtime API, so workloads
// can be compared across implementations as in the paper's evaluation.
//
// # Usage
//
//	rt := thinlock.New()
//	main, _ := rt.AttachThread("main")
//	obj := rt.NewObject("Account")
//
//	rt.Synchronized(main, obj, func() {
//		// critical section
//	})
//
// Threads are explicit handles (the analogue of a JVM thread's execution
// environment); each goroutine that participates must attach its own
// Thread and must not share it.
package thinlock

import (
	"fmt"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/lockapi"
	"thinlock/internal/lockstat"
	"thinlock/internal/locktrace"
	"thinlock/internal/monitorcache"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Implementation selects the lock implementation backing a Runtime.
type Implementation int

const (
	// ThinLock is the paper's algorithm (the default).
	ThinLock Implementation = iota
	// JDK111 is the Sun JDK 1.1.1 monitor-cache baseline.
	JDK111
	// IBM112 is the IBM JDK 1.1.2 hot-locks baseline.
	IBM112
)

// String returns the paper's name for the implementation.
func (i Implementation) String() string {
	switch i {
	case ThinLock:
		return "ThinLock"
	case JDK111:
		return "JDK111"
	case IBM112:
		return "IBM112"
	default:
		return "unknown-implementation"
	}
}

// Variant selects a thin-lock code-path variant from the paper's §3.5
// study. It only applies when the implementation is ThinLock.
type Variant = core.Variant

// Thin-lock variants (Figure 6 of the paper).
const (
	VariantStandard  = core.VariantStandard
	VariantInline    = core.VariantInline
	VariantFnCall    = core.VariantFnCall
	VariantMPSync    = core.VariantMPSync
	VariantKernelCAS = core.VariantKernelCAS
	VariantUnlockCAS = core.VariantUnlockCAS
	VariantNOP       = core.VariantNOP
)

// CPU selects the simulated machine model (§3.5.1).
type CPU = arch.CPU

// Simulated machines.
const (
	PowerPCUP = arch.PowerPCUP
	PowerPCMP = arch.PowerPCMP
	POWER     = arch.POWER
)

// Config collects the Runtime construction options.
type Config struct {
	impl      Implementation
	variant   Variant
	cpu       CPU
	compact   bool
	countBits int
	stats     bool
	traceCap  int
	cacheCap  int
	hotSlots  int
}

// Option configures a Runtime.
type Option func(*Config)

// WithImplementation selects the lock implementation.
func WithImplementation(i Implementation) Option {
	return func(c *Config) { c.impl = i }
}

// WithVariant selects a thin-lock variant (ThinLock implementation only).
func WithVariant(v Variant) Option {
	return func(c *Config) { c.variant = v }
}

// WithCPU selects the simulated machine model for the standard thin-lock
// variant's dynamic machine test.
func WithCPU(cpu CPU) Option {
	return func(c *Config) { c.cpu = cpu }
}

// WithDeflation enables compact monitors (not in the paper, whose
// contended objects stay inflated for life): an object's header only
// ever holds a thin lock word, and contenders and waiters park on a
// process-wide parking lot keyed by the object, so no object is ever
// inflated and none has to be deflated. Lock memory is then bounded by
// the blocked threads, not by the objects that were once contended.
func WithDeflation() Option {
	return func(c *Config) { c.compact = true }
}

// WithCountBits narrows the thin lock's nested-count field to the given
// width (1..8) for the paper's §3.2 ablation; locks nesting deeper than
// 2^bits inflate.
func WithCountBits(bits int) Option {
	return func(c *Config) { c.countBits = bits }
}

// WithStats wraps the runtime's locker in a lock-operation recorder whose
// report is available from Runtime.LockStats. Recording adds overhead;
// do not enable it for timing runs.
func WithStats() Option {
	return func(c *Config) { c.stats = true }
}

// WithTrace wraps the runtime's locker in an event tracer with the given
// buffer capacity (0 selects a default). The recorded events are
// available from Runtime.TraceEvents, and Runtime.TraceReport analyzes
// them for hazards such as lock-order inversions. Tracing adds overhead;
// do not enable it for timing runs.
func WithTrace(capacity int) Option {
	return func(c *Config) {
		if capacity <= 0 {
			capacity = locktrace.DefaultCapacity
		}
		c.traceCap = capacity
	}
}

// WithMonitorCacheCapacity sets the JDK111 monitor pool size.
func WithMonitorCacheCapacity(n int) Option {
	return func(c *Config) { c.cacheCap = n }
}

// WithHotLockSlots sets the IBM112 hot-lock count (the paper uses 32).
func WithHotLockSlots(n int) Option {
	return func(c *Config) { c.hotSlots = n }
}

// Runtime owns a heap, a thread registry and a lock implementation.
// It is safe for concurrent use.
type Runtime struct {
	locker   lockapi.Locker
	thin     *core.ThinLocks // nil unless impl == ThinLock
	cache    *monitorcache.Cache
	hot      *hotlocks.HotLocks
	recorder *lockstat.Recorder
	tracer   *locktrace.Tracer
	heap     *object.Heap
	registry *threading.Registry
	impl     Implementation
}

// New constructs a Runtime. With no options it uses the paper's standard
// thin-lock configuration on a simulated PowerPC uniprocessor.
func New(opts ...Option) *Runtime {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	rt := &Runtime{
		heap:     object.NewHeap(),
		registry: threading.NewRegistry(),
		impl:     cfg.impl,
	}
	switch cfg.impl {
	case JDK111:
		rt.cache = monitorcache.New(monitorcache.Options{Capacity: cfg.cacheCap})
		rt.locker = rt.cache
	case IBM112:
		rt.hot = hotlocks.New(hotlocks.Options{Slots: cfg.hotSlots})
		rt.locker = rt.hot
	default:
		rt.thin = core.New(core.Options{
			Variant:   cfg.variant,
			CPU:       cfg.cpu,
			Compact:   cfg.compact,
			CountBits: cfg.countBits,
		})
		rt.locker = rt.thin
	}
	if cfg.stats {
		rt.recorder = lockstat.New(rt.locker)
		rt.locker = rt.recorder
	}
	if cfg.traceCap > 0 {
		rt.tracer = locktrace.New(rt.locker, cfg.traceCap)
		rt.locker = rt.tracer
	}
	return rt
}

// Thread is a handle for one logical thread of execution. Obtain one via
// AttachThread or Go; never share a Thread between goroutines.
type Thread struct {
	t *threading.Thread
}

// Name returns the name given at attach time.
func (t *Thread) Name() string { return t.t.Name() }

// Index returns the thread's 15-bit index as stored in thin lock words.
func (t *Thread) Index() uint16 { return t.t.Index() }

// Interrupt sets the thread's interrupt status, waking it if it is
// blocked in Wait.
func (t *Thread) Interrupt() { t.t.Interrupt() }

// String implements fmt.Stringer.
func (t *Thread) String() string { return t.t.String() }

// Object is a lockable heap object.
type Object struct {
	o *object.Object
}

// ID returns the object's allocation id.
func (o *Object) ID() uint64 { return o.o.ID() }

// Class returns the class tag given at allocation.
func (o *Object) Class() string { return o.o.Class() }

// Header returns the object's current header word, whose high 24 bits
// are the lock field (diagnostic; the value may be stale immediately).
func (o *Object) Header() uint32 { return o.o.Header() }

// String implements fmt.Stringer.
func (o *Object) String() string { return o.o.String() }

// ErrInterrupted is returned by Wait when the waiting thread was
// interrupted; the thread's interrupt status is cleared.
var ErrInterrupted = threading.ErrInterrupted

// ErrIllegalMonitorState is returned when a thread unlocks, waits on or
// notifies an object whose monitor it does not hold.
var ErrIllegalMonitorState = core.ErrIllegalMonitorState

// AttachThread registers a new logical thread. Call DetachThread when
// the thread terminates so its 15-bit index can be recycled.
func (r *Runtime) AttachThread(name string) (*Thread, error) {
	t, err := r.registry.Attach(name)
	if err != nil {
		return nil, err
	}
	return &Thread{t: t}, nil
}

// DetachThread releases the thread's index. The thread must not hold any
// locks.
func (r *Runtime) DetachThread(t *Thread) { r.registry.Detach(t.t) }

// Go runs fn on a new goroutine with a freshly attached Thread, detaching
// it afterwards. The returned channel closes when fn has returned.
func (r *Runtime) Go(name string, fn func(*Thread)) (<-chan struct{}, error) {
	return r.registry.Go(name, func(t *threading.Thread) {
		fn(&Thread{t: t})
	})
}

// NewObject allocates a lockable object with the given class tag.
func (r *Runtime) NewObject(class string) *Object {
	return &Object{o: r.heap.New(class)}
}

// Lock acquires o's monitor for t, blocking as needed.
func (r *Runtime) Lock(t *Thread, o *Object) { r.locker.Lock(t.t, o.o) }

// Unlock releases one level of o's monitor.
func (r *Runtime) Unlock(t *Thread, o *Object) error { return r.locker.Unlock(t.t, o.o) }

// Synchronized runs fn while holding o's monitor.
func (r *Runtime) Synchronized(t *Thread, o *Object, fn func()) {
	lockapi.Synchronized(r.locker, t.t, o.o, fn)
}

// Wait releases o's monitor, blocks until notified, interrupted, or d
// elapses (d <= 0 waits forever), and re-acquires the monitor at the
// original recursion depth. It reports one outcome: notified (an
// interrupt that raced the notify stays pending), ErrInterrupted, or a
// timeout (notified false, nil error).
func (r *Runtime) Wait(t *Thread, o *Object, d time.Duration) (notified bool, err error) {
	return r.locker.Wait(t.t, o.o, d)
}

// Notify wakes one thread waiting on o.
func (r *Runtime) Notify(t *Thread, o *Object) error { return r.locker.Notify(t.t, o.o) }

// NotifyAll wakes every thread waiting on o.
func (r *Runtime) NotifyAll(t *Thread, o *Object) error { return r.locker.NotifyAll(t.t, o.o) }

// Implementation reports which lock implementation backs the runtime.
func (r *Runtime) Implementation() Implementation { return r.impl }

// Name returns the implementation's report name.
func (r *Runtime) Name() string { return r.locker.Name() }

// Inflated reports whether o's lock is currently a fat lock. Always
// false for the baseline implementations, which have no thin state.
func (r *Runtime) Inflated(o *Object) bool {
	if r.thin == nil {
		return false
	}
	return r.thin.Inflated(o.o)
}

// ThinLockStats returns the thin-lock counters (inflations, spins,
// lot parks), or zero values for the baseline implementations.
func (r *Runtime) ThinLockStats() core.Stats {
	if r.thin == nil {
		return core.Stats{}
	}
	return r.thin.Stats()
}

// LockStats returns the lock-operation report recorded under WithStats.
// It returns an error if WithStats was not enabled.
func (r *Runtime) LockStats() (lockstat.Report, error) {
	if r.recorder == nil {
		return lockstat.Report{}, fmt.Errorf("thinlock: runtime built without WithStats")
	}
	return r.recorder.Snapshot(), nil
}

// TraceEvents returns the events recorded under WithTrace. It returns an
// error if WithTrace was not enabled.
func (r *Runtime) TraceEvents() ([]locktrace.Event, error) {
	if r.tracer == nil {
		return nil, fmt.Errorf("thinlock: runtime built without WithTrace")
	}
	return r.tracer.Events(), nil
}

// TraceReport analyzes the recorded trace for hazards: failed
// operations, locks still held, and lock-order inversions that indicate
// potential deadlocks. It returns an error if WithTrace was not enabled.
func (r *Runtime) TraceReport() (locktrace.Report, error) {
	if r.tracer == nil {
		return locktrace.Report{}, fmt.Errorf("thinlock: runtime built without WithTrace")
	}
	return locktrace.Analyze(r.tracer.Events()), nil
}

// ObjectsAllocated reports how many objects the runtime's heap created.
func (r *Runtime) ObjectsAllocated() uint64 { return r.heap.Allocated() }

// AttachedThreads reports how many threads are currently attached.
func (r *Runtime) AttachedThreads() int { return r.registry.Attached() }
