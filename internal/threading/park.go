// Parking: the one mechanism every blocked thread uses.
//
// A thread blocks on at most one thing at a time, so each Thread embeds
// one ParkNode and one Parker. A fat monitor links the nodes of the
// threads it blocks into two intrusive FIFO Queues, its entry queue and
// its wait set (internal/monitor). A thread that blocks where there is no
// monitor to queue on (a thin lock's flat-lock contention, a bias
// revocation in flight) files its node in the parking lot: a fixed table
// of buckets keyed by object, the shape of WebKit's ParkingLot and of the
// Linux futex hash. Either way the thread then sleeps on its Parker until
// whoever dequeues its node wakes it, so a block allocates nothing.
//
// A lot node is an entry parker or a waiter. Park files an entry parker:
// a thread waiting for its key's lock to be released. File files a
// waiter, a thread in Object.wait that a notify must choose; Relabel is
// that notify, turning waiters into entry parkers; UnparkOne and
// UnparkAll wake entry parkers only. So ThinLock-compact
// keeps a contended or waited-on object's whole queueing state here and
// never inflates it.
//
// The lot is one process-wide table rather than one per lock
// implementation: blocked threads are few at any moment, a fixed table
// sized for them is a few KiB of static data, and a per-Locker table
// would add that much to every Locker a program builds.

package threading

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/object"
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

// ParkNode is a thread's one place in a queue of blocked threads. The
// queue that holds the node guards its link and Count. State is atomic so
// the parked thread can poll it without that queue's lock.
type ParkNode struct {
	next   *ParkNode
	thread *Thread
	// key is the object the node is parked on in the lot; nil when it is
	// in no bucket. An unparker clears it, with the bucket locked, to
	// release the thread.
	key atomic.Pointer[object.Object]

	// State says where a monitor holds the node (its entry queue, its
	// wait set, or granted ownership); the monitor defines the values.
	// On the lot it is LotEntry or LotWait.
	State atomic.Uint32
	// Count is the lock count a monitor restores when it hands itself
	// to the node, or that a waiter filed on the lot restores once it
	// re-acquires.
	Count uint32
}

// The states of a node on the lot.
const (
	// LotEntry is a thread waiting to contend for its key's lock.
	LotEntry uint32 = iota
	// LotWait is a thread in Object.wait on its key.
	LotWait
)

// Thread returns the thread the node belongs to.
func (n *ParkNode) Thread() *Thread { return n.thread }

// Queue is an intrusive FIFO of park nodes. The zero value is empty. Its
// owner guards it with a lock.
type Queue struct {
	head, tail *ParkNode
}

// Empty reports whether the queue holds no node.
func (q *Queue) Empty() bool { return q.head == nil }

// Push appends n, which must be in no queue.
func (q *Queue) Push(n *ParkNode) {
	n.next = nil
	if q.tail == nil {
		q.head = n
	} else {
		q.tail.next = n
	}
	q.tail = n
}

// Pop removes and returns the first node, or nil.
func (q *Queue) Pop() *ParkNode {
	n := q.head
	if n != nil {
		q.unlink(nil, n)
	}
	return n
}

// Remove deletes n from the queue, reporting whether it was there.
func (q *Queue) Remove(n *ParkNode) bool {
	var prev *ParkNode
	for c := q.head; c != nil; prev, c = c, c.next {
		if c == n {
			q.unlink(prev, n)
			return true
		}
	}
	return false
}

// unlink deletes n, whose predecessor is prev (nil for the head).
func (q *Queue) unlink(prev, n *ParkNode) {
	if prev == nil {
		q.head = n.next
	} else {
		prev.next = n.next
	}
	if q.tail == n {
		q.tail = prev
	}
	n.next = nil
}

// Len counts the nodes, walking the queue.
func (q *Queue) Len() int {
	k := 0
	for c := q.head; c != nil; c = c.next {
		k++
	}
	return k
}

// Ends returns the head and tail pointers, for tests that check an
// emptied queue keeps no node reachable.
func (q *Queue) Ends() (head, tail *ParkNode) { return q.head, q.tail }

// lotBits sizes the lot: 64 buckets of one cache line each.
const lotBits = 6

// bucket is one lot slot: the nodes parked on the objects that hash to
// it, in arrival order.
type bucket struct {
	mu sync.Mutex
	q  Queue
	_  [40]byte
}

var lot [1 << lotBits]bucket

// bucketFor hashes the object's id. Ids are unique only within a heap,
// so two objects can share a bucket; nodes match by object pointer.
func bucketFor(key *object.Object) *bucket {
	return &lot[key.ID()*0x9E3779B97F4A7C15>>(64-lotBits)]
}

// Park blocks t on key until UnparkOne or UnparkAll releases it. validate
// runs with key's bucket locked: if it reports false, Park returns false
// without blocking. An unparker that changes the state validate reads
// before it calls UnparkOne or UnparkAll therefore cannot miss t. Park
// returns true once released; an Interrupt does not release it.
//
//lockvet:noalloc
func Park(t *Thread, key *object.Object, validate func() bool) bool {
	b := bucketFor(key)
	n := &t.node
	b.mu.Lock()
	if !validate() {
		b.mu.Unlock()
		return false
	}
	n.State.Store(LotEntry)
	n.key.Store(key)
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
func File(t *Thread, key *object.Object, count uint32) {
	b := bucketFor(key)
	n := &t.node
	n.Count = count
	n.State.Store(LotWait)
	b.mu.Lock()
	n.key.Store(key)
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
	if key := n.key.Load(); key != nil {
		b := bucketFor(key)
		b.mu.Lock()
		if n.key.Load() != nil && n.State.Load() == LotWait {
			b.q.Remove(n)
			n.key.Store(nil)
		}
		b.mu.Unlock()
	}
	for n.key.Load() != nil {
		t.parker.Park()
	}
	return n.State.Load() == LotEntry
}

// Relabel turns up to max (all, if negative) of key's waiters, longest
// filed first, into entry parkers, and returns how many. They sleep on
// until UnparkOne or UnparkAll releases them.
//
//lockvet:noalloc
func Relabel(key *object.Object, max int) int {
	b := bucketFor(key)
	moved := 0
	b.mu.Lock()
	for n := b.q.head; n != nil && moved != max; n = n.next {
		if n.key.Load() == key && n.State.Load() == LotWait {
			n.State.Store(LotEntry)
			moved++
		}
	}
	b.mu.Unlock()
	return moved
}

// Parked returns how many threads are filed on key, entry parkers and
// waiters alike, or on any key if key is nil.
func Parked(key *object.Object) int {
	if key != nil {
		return bucketFor(key).count(key)
	}
	k := 0
	for i := range lot {
		k += lot[i].count(nil)
	}
	return k
}

// count returns how many of b's nodes are filed on key, or on any key if
// key is nil.
func (b *bucket) count(key *object.Object) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := 0
	for n := b.q.head; n != nil; n = n.next {
		if key == nil || n.key.Load() == key {
			k++
		}
	}
	return k
}

// UnparkOne releases the longest-parked entry parker on key, reporting
// whether there was one. Waiters stay filed.
func UnparkOne(key *object.Object) bool { return unpark(key, 1) == 1 }

// UnparkAll releases every entry parker on key and returns how many.
// Waiters stay filed.
func UnparkAll(key *object.Object) int { return unpark(key, -1) }

// unpark releases up to max (all, if negative) entry parkers on key.
// The node is unlinked and its next read before its key is cleared:
// from that store on, the node belongs to its thread again.
//
//lockvet:noalloc
func unpark(key *object.Object, max int) int {
	b := bucketFor(key)
	woken := 0
	b.mu.Lock()
	var prev *ParkNode
	for n := b.q.head; n != nil && woken != max; {
		next := n.next
		if n.key.Load() != key || n.State.Load() != LotEntry {
			prev, n = n, next
			continue
		}
		b.q.unlink(prev, n)
		t := n.thread
		n.key.Store(nil)
		t.parker.Unpark()
		woken++
		n = next
	}
	b.mu.Unlock()
	return woken
}
