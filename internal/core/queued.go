package core

import (
	"sync"
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Queued inflation: an extension replacing the spin loop of §2.3.4.
//
// The paper acknowledges one pathological case for spinning: "when an
// object is locked by one thread and not released for a long time, during
// which time other threads are spinning on the object". The follow-up
// work on Tasuki locks (Onodera & Kawachiya, OOPSLA'99) eliminated the
// spin with a *flat lock contention* (flc) bit that a contender may set,
// placed where lock-word stores by the owner can never clobber it. This
// file implements that protocol:
//
//	contender:  set flc (atomic, in the flags word);
//	            re-read the lock word — still thin-locked by another
//	            thread? then park on the object's contention queue;
//	            otherwise retry immediately.
//	owner:      release the thin lock with the usual unlock store, then
//	            load the flags word; if flc is set, wake the queue.
//
// Both sides' operations are sequentially consistent atomics, so the
// classic Dekker argument applies: if the contender parked, the owner's
// release either preceded the contender's re-read (contender would have
// seen the lock free) or the owner's flag load follows the contender's
// flag store (owner wakes the queue). No wakeup can be lost. The
// argument needs the owner's release to be a sequentially consistent
// store (atomic.StoreUint32, XCHG on amd64). A release store would let
// the owner's later flags load pass it, and both sides could then miss
// each other.
//
// The woken contenders race to acquire the thin lock; the winner inflates
// it under the locality-of-contention principle, and the losers find the
// inflated word and queue on the fat lock. The cost of the extension is
// one extra atomic load on every final unlock while the lock is thin.

// FlagFLC is the flat-lock-contention bit in the object's flags word.
const FlagFLC uint32 = 1 << 0

// flcQueue is the parking list for contenders on one thin-locked object.
type flcQueue struct {
	mu      sync.Mutex
	waiters []chan struct{}
}

// flcTable maps object ids to contention queues. Entries exist only
// while a thin lock is contended; inflation makes them garbage.
type flcTable struct {
	mu     sync.Mutex
	queues map[uint64]*flcQueue
}

func newFLCTable() *flcTable {
	return &flcTable{queues: make(map[uint64]*flcQueue)}
}

// get returns (creating if needed) the queue for object id.
func (ft *flcTable) get(id uint64) *flcQueue {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	q := ft.queues[id]
	if q == nil {
		q = &flcQueue{}
		ft.queues[id] = q
	}
	return q
}

// drop removes the queue for id if it has no waiters.
func (ft *flcTable) drop(id uint64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if q := ft.queues[id]; q != nil {
		q.mu.Lock()
		empty := len(q.waiters) == 0
		q.mu.Unlock()
		if empty {
			delete(ft.queues, id)
		}
	}
}

// queueLen reports the number of queues currently allocated (tests).
func (ft *flcTable) queueLen() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.queues)
}

// queueWait blocks t until o's thin lock is released (or briefly, on any
// wake). Returns immediately if the lock is observed free or inflated.
func (l *ThinLocks) queueWait(t *threading.Thread, o *object.Object) {
	q := l.flc.get(o.ID())

	// Publish contention before re-checking the lock word (store→load
	// ordering is what makes the handshake safe).
	o.SetFlagBits(FlagFLC)

	w := atomic.LoadUint32(o.HeaderAddr())
	if w&TIDMask == 0 || IsInflated(w) {
		// Released (or inflated) in the window: no need to park.
		return
	}

	ch := make(chan struct{})
	q.mu.Lock()
	// Re-check under the queue lock so a concurrent wake cannot slip
	// between the check and the append.
	w = atomic.LoadUint32(o.HeaderAddr())
	if w&TIDMask == 0 || IsInflated(w) || o.Flags()&FlagFLC == 0 {
		q.mu.Unlock()
		return
	}
	q.waiters = append(q.waiters, ch)
	q.mu.Unlock()

	l.queuedParks.Add(1)
	lockevent.Emit(lockevent.QueuedPark, t, o)
	start := lockevent.Start(lockevent.Unpark)
	<-ch
	lockevent.End(lockevent.Unpark, t, o, start)
}

// wakeQueued clears the flc bit and releases every parked contender.
// Called by the releasing owner after its unlock store.
func (l *ThinLocks) wakeQueued(o *object.Object) {
	o.ClearFlagBits(FlagFLC)
	q := l.flc.get(o.ID())
	q.mu.Lock()
	waiters := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
	l.flcWakeups.Add(1)
	lockevent.Emit(lockevent.QueueWake, nil, o)
	l.flc.drop(o.ID())
}

// maybeWakeQueued is the owner's post-release hook: one atomic load in
// the common (uncontended) case.
func (l *ThinLocks) maybeWakeQueued(o *object.Object) {
	if o.Flags()&FlagFLC != 0 {
		l.wakeQueued(o)
	}
}

// wakeAfterUnlock is maybeWakeQueued behind the DropQueuedWake seeded
// mutation (see mutation.go). Inflation's wakeup is deliberately not
// routed through here: the mutation models a bug in the unlock path
// only.
func (l *ThinLocks) wakeAfterUnlock(o *object.Object) {
	if l.mut.DropQueuedWake {
		return
	}
	l.maybeWakeQueued(o)
}
