// Parking: the one mechanism every blocked thread uses.
//
// A thread blocks on at most one thing at a time, so each Thread embeds
// one ParkNode and one Parker. A blocked thread files its node in the
// parking lot, a fixed table of buckets keyed by address, the shape of
// WebKit's ParkingLot and of the Linux futex hash, and sleeps on its
// Parker until whoever unlinks the node wakes it, so a block allocates
// nothing. A key is the address of the variable a thread waits on:
// ThinLock-compact and Biased's revocation park threads on the object,
// and a fat monitor (internal/monitor) parks its threads on the
// monitor, never on its object. Distinct variables are distinct keys,
// so a wake for one never reaches the other's threads.
//
// A lot node is an entry parker or a waiter. Park files an entry parker:
// a thread waiting for its key's lock to be released. File files a
// waiter, a thread in Object.wait that a notify must choose; Relabel is
// that notify, turning waiters into entry parkers. UnparkAll and Handoff
// release entry parkers only: UnparkAll all of them, to contend again,
// and Handoff the longest-parked one, after a grant that hands it the
// lock. So ThinLock-compact keeps a contended or waited-on object's
// whole queueing state here and never inflates it, and a fat monitor
// keeps only its one word of owner and count.
//
// The lot is one process-wide table rather than one per lock
// implementation: blocked threads are few at any moment, a fixed table
// sized for them is a few KiB, allocated once, and a per-Locker table
// would add that much to every Locker a program builds.

package threading

import (
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Parker is a one-permit binary semaphore, the substrate every park
// sleeps on. Unpark before Park leaves the permit, so no wakeup is lost,
// and Unparks coalesce into one permit. A permit can outlive the wake it
// was meant for (an Interrupt, or an unparker that released the node
// before the thread looked), so every park runs in a loop that re-checks
// its own condition: a wake is a hint, never a verdict. Attach makes the
// channel; the Parker of a Thread that was never attached blocks forever.
type Parker struct {
	ch chan struct{} // buffered 1
}

// Park blocks until a permit is available and consumes it.
//
//lockvet:noalloc
func (p *Parker) Park() { <-p.ch }

// ParkTimeout blocks until a permit is available or d elapses. It
// reports whether a permit was consumed (true) or the timeout fired
// (false). A non-positive d polls without blocking.
func (p *Parker) ParkTimeout(d time.Duration) bool {
	if d <= 0 {
		select {
		case <-p.ch:
			return true
		default:
			return false
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-p.ch:
		return true
	case <-timer.C:
		return false
	}
}

// Unpark makes one permit available if none is pending.
func (p *Parker) Unpark() {
	select {
	case p.ch <- struct{}{}:
	default:
	}
}

// C returns the permit channel, for blocking code that must select on
// other events too; receiving from it consumes the permit.
func (p *Parker) C() <-chan struct{} { return p.ch }

// ParkNode is a thread's one place on the lot. The bucket that files
// the node guards its link, its state and Count; key is atomic so the
// parked thread can poll it without the bucket lock.
type ParkNode struct {
	next   *ParkNode
	thread *Thread
	// key is the address the node is filed under; nil when it is in no
	// bucket. An unparker clears it, with the bucket locked, to release
	// the thread.
	key atomic.Pointer[byte]
	// state is lotEntry or lotWait.
	state atomic.Uint32
	// Count is the lock count a fat monitor restores when it hands
	// itself to the node, or that a waiter restores once it re-acquires.
	Count uint32
}

// The states of a node on the lot.
const (
	lotEntry uint32 = iota // a thread waiting to contend for its key's lock
	lotWait                // a thread in Object.wait on its key
)

// entrant reports whether n is an entry parker filed on k.
func (n *ParkNode) entrant(k *byte) bool {
	return n.key.Load() == k && n.state.Load() == lotEntry
}

// queue is an intrusive FIFO of park nodes, kept as a circular list
// through its tail: tail.next is the head, so one word holds the queue
// and Push is O(1). The zero value is empty. Its bucket's lock guards
// it.
type queue struct {
	tail *ParkNode
}

// Push appends n, which must be in no queue.
func (q *queue) Push(n *ParkNode) {
	if q.tail == nil {
		n.next = n
	} else {
		n.next = q.tail.next
		q.tail.next = n
	}
	q.tail = n
}

// Remove deletes n from the queue, reporting whether it was there.
func (q *queue) Remove(n *ParkNode) bool {
	prev := q.tail
	for c := q.head(); c != nil; prev, c = c, q.after(c) {
		if c == n {
			q.unlink(prev, n)
			return true
		}
	}
	return false
}

// head returns the first node, or nil.
func (q *queue) head() *ParkNode {
	if q.tail == nil {
		return nil
	}
	return q.tail.next
}

// after returns the node that follows c, or nil if c is the tail.
func (q *queue) after(c *ParkNode) *ParkNode {
	if c == q.tail {
		return nil
	}
	return c.next
}

// unlink deletes n, whose predecessor is prev (the tail, for the head).
func (q *queue) unlink(prev, n *ParkNode) {
	if prev == n { // n is the only node
		q.tail = nil
	} else {
		prev.next = n.next
		if q.tail == n {
			q.tail = prev
		}
	}
	n.next = nil
}

// lotBits sizes the lot: 64 buckets of one cache line each.
const lotBits = 6

// bucket is one lot slot: the nodes filed on the keys that hash to it,
// in arrival order. It fills one cache line, so no two buckets' locks
// or queues share one.
type bucket struct {
	mu sync.Mutex
	q  queue
	_  [48]byte
}

// lot holds the buckets, each an allocation of its own. A bucket is an
// object in the allocator's 64-byte size class, whose objects start on
// cache lines; an array of buckets would start wherever the linker or
// the allocator put it (a global is aligned to 32 bytes at most, and a
// large pointer-holding allocation starts 8 bytes into its block).
var lot = func() (l [1 << lotBits]*bucket) {
	for i := range l {
		l[i] = new(bucket)
	}
	return l
}()

// addr is key's address, which the lot files key's nodes under.
func addr[K any](key *K) *byte { return (*byte)(unsafe.Pointer(key)) }

// bucketFor hashes a key's address by Fibonacci hashing: the product's
// top bits, so aligned addresses spread as well as any. Two keys can
// share a bucket; nodes match by address.
func bucketFor(k *byte) *bucket {
	return lot[uint64(uintptr(unsafe.Pointer(k)))*0x9E3779B97F4A7C15>>(64-lotBits)]
}

// Park blocks t on key until UnparkAll or Handoff releases it. validate
// runs with key's bucket locked: if it reports false, Park returns false
// without blocking. An unparker that changes the state validate reads
// before it calls UnparkAll, or that changes it in Handoff's grant,
// therefore cannot miss t. Park returns true once released; an
// Interrupt does not release it.
//
//lockvet:noalloc
func Park[K any](t *Thread, key *K, validate func() bool) bool {
	k := addr(key)
	b := bucketFor(k)
	n := &t.node
	b.mu.Lock()
	if !validate() {
		b.mu.Unlock()
		return false
	}
	n.state.Store(lotEntry)
	n.key.Store(k)
	b.q.Push(n)
	b.mu.Unlock()
	for n.key.Load() != nil {
		t.parker.Park()
	}
	return true
}

// File files t's node on key as a waiter that will restore count locks,
// without blocking; Sleep then blocks t. The caller must hold key's lock
// and release it after File returns, so a notify that follows the
// release finds the node.
//
//lockvet:noalloc
func File[K any](t *Thread, key *K, count uint32) {
	k := addr(key)
	b := bucketFor(k)
	n := &t.node
	n.Count = count
	n.state.Store(lotWait)
	b.mu.Lock()
	n.key.Store(k)
	b.q.Push(n)
	b.mu.Unlock()
}

// Sleep blocks t, whose node File filed, until an unparker releases it,
// t is interrupted, or d elapses (d <= 0 sleeps without a timeout). If
// the node is still a waiter then, Sleep removes it; a node that a
// Relabel chose sleeps on, untimed, until an unparker releases it. Sleep
// reports whether a Relabel chose the node, that is whether the wait was
// notified; the caller tells a timeout from an interrupt by the
// interrupt status. Only a timed sleep allocates, for its timer.
func Sleep(t *Thread, d time.Duration) (notified bool) {
	n := &t.node
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for n.key.Load() != nil && !t.IsInterrupted() {
		if d <= 0 {
			t.parker.Park()
			continue
		}
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		t.parker.ParkTimeout(left)
	}
	if k := n.key.Load(); k != nil {
		b := bucketFor(k)
		b.mu.Lock()
		if n.key.Load() != nil && n.state.Load() == lotWait {
			b.q.Remove(n)
			n.key.Store(nil)
		}
		b.mu.Unlock()
	}
	for n.key.Load() != nil {
		t.parker.Park()
	}
	return n.state.Load() == lotEntry
}

// Relabel turns up to max (all, if negative) of key's waiters, longest
// filed first, into entry parkers, and returns how many. They keep
// their places in filing order, and sleep on until UnparkAll or Handoff
// releases them. If it turned any and moved is not nil, Relabel then
// calls moved with key's bucket still locked, so a lock can record that
// it has entry parkers before any validate or grant looks.
//
//lockvet:noalloc
func Relabel[K any](key *K, max int, moved func()) int {
	k := addr(key)
	b := bucketFor(k)
	n := 0
	b.mu.Lock()
	for c := b.q.head(); c != nil && n != max; c = b.q.after(c) {
		if c.key.Load() == k && c.state.Load() == lotWait {
			c.state.Store(lotEntry)
			n++
		}
	}
	if n > 0 && moved != nil {
		moved()
	}
	b.mu.Unlock()
	return n
}

// Handoff releases the longest-parked entry parker on key. First, with
// key's bucket locked, it calls grant with that parker's thread, the
// Count its node carries and whether more entry parkers remain on key,
// or with nil, 0 and false if there is none. A lock hands itself over
// in grant, so the thread wakes owning it and no thread that arrives
// meanwhile can take it first. Waiters stay filed.
//
//lockvet:noalloc
func Handoff[K any](key *K, grant func(next *Thread, count uint32, more bool)) {
	k := addr(key)
	b := bucketFor(k)
	b.mu.Lock()
	prev, n := b.q.tail, b.q.head()
	for n != nil && !n.entrant(k) {
		prev, n = n, b.q.after(n)
	}
	if n == nil {
		grant(nil, 0, false)
		b.mu.Unlock()
		return
	}
	more := false
	for c := b.q.after(n); c != nil && !more; c = b.q.after(c) {
		more = c.entrant(k)
	}
	grant(n.thread, n.Count, more)
	b.q.unlink(prev, n)
	release(n)
	b.mu.Unlock()
}

// UnparkAll releases every entry parker on key and returns how many.
// Waiters stay filed.
//
//lockvet:noalloc
func UnparkAll[K any](key *K) int {
	k := addr(key)
	b := bucketFor(k)
	woken := 0
	b.mu.Lock()
	prev := b.q.tail
	for n := b.q.head(); n != nil; {
		next := b.q.after(n)
		if !n.entrant(k) {
			prev, n = n, next
			continue
		}
		b.q.unlink(prev, n)
		release(n)
		woken++
		n = next
	}
	b.mu.Unlock()
	return woken
}

// release wakes the thread of n, which its bucket has unlinked. Its
// thread is read before its key is cleared: from that store on, the
// node belongs to its thread again. Caller holds the bucket lock.
func release(n *ParkNode) {
	t := n.thread
	n.key.Store(nil)
	t.parker.Unpark()
}

// Parked returns how many entry parkers and how many waiters are filed
// on key, or on any key if key is nil.
func Parked[K any](key *K) (entry, waiting int) {
	if key != nil {
		k := addr(key)
		b := bucketFor(k)
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.count(k)
	}
	for _, b := range lot {
		b.mu.Lock()
		e, w := b.count(nil)
		b.mu.Unlock()
		entry, waiting = entry+e, waiting+w
	}
	return entry, waiting
}

// ParkedLocked is Parked for a caller that already holds key's bucket
// lock: a validate, a grant or a Relabel's moved.
func ParkedLocked[K any](key *K) (entry, waiting int) {
	k := addr(key)
	return bucketFor(k).count(k)
}

// count returns how many of b's nodes are filed on k, or on any key if
// k is nil, as entry parkers and as waiters. Caller holds b's lock.
func (b *bucket) count(k *byte) (entry, waiting int) {
	for n := b.q.head(); n != nil; n = b.q.after(n) {
		switch {
		case k != nil && n.key.Load() != k:
		case n.state.Load() == lotEntry:
			entry++
		default:
			waiting++
		}
	}
	return entry, waiting
}
