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
	State atomic.Uint32
	// Count is the lock count a monitor restores when it hands itself
	// to the node.
	Count uint32
}

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
	n.key.Store(key)
	b.q.Push(n)
	b.mu.Unlock()
	for n.key.Load() != nil {
		t.parker.Park()
	}
	return true
}

// UnparkOne releases the longest-parked thread on key, reporting whether
// there was one.
func UnparkOne(key *object.Object) bool { return unpark(key, 1) == 1 }

// UnparkAll releases every thread parked on key and returns how many.
func UnparkAll(key *object.Object) int { return unpark(key, -1) }

// unpark releases up to max (all, if negative) threads parked on key.
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
		if n.key.Load() != key {
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
