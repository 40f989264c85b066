package core

import (
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
//	            thread? then park on the object in the parking lot
//	            (threading.Park), whose validate re-reads the lock word
//	            and flc with the object's lot bucket locked;
//	            otherwise retry immediately.
//	owner:      release the thin lock with the usual unlock store, then
//	            load the flags word; if flc is set, clear it and wake
//	            every thread parked on the object (threading.UnparkAll,
//	            which takes the same bucket lock).
//
// Both sides' lock-word and flag operations are sequentially consistent
// atomics, so the classic Dekker argument applies: if the contender
// parked, the owner's release either preceded the contender's re-read
// (contender would have seen the lock free) or the owner's flag load
// follows the contender's flag store (owner wakes the object's parked
// threads). The bucket lock closes the remaining window: validate's
// re-read and the enqueue happen under it, and so does the owner's
// dequeue, so an owner whose flag load saw flc either finds the
// contender parked or made its release before validate ran (validate
// then sees the lock free, or flc cleared, and the contender retries).
// No wakeup can be lost. The argument needs the owner's release to be
// a sequentially consistent store (atomic.StoreUint32, XCHG on amd64).
// A release store would let the owner's later flags load pass it, and
// both sides could then miss each other.
//
// The woken contenders race to acquire the thin lock; the winner inflates
// it under the locality-of-contention principle, and the losers find the
// inflated word and queue on the fat lock. The cost of the extension is
// one extra atomic load on every final unlock while the lock is thin.

// FlagFLC is the flat-lock-contention bit in the object's flags word.
const FlagFLC uint32 = 1 << 0

// queueWait blocks t until o's thin lock is released (or briefly, on any
// wake). Returns immediately if the lock is observed free or inflated.
func (l *ThinLocks) queueWait(t *threading.Thread, o *object.Object) {
	// Publish contention before re-checking the lock word (store→load
	// ordering is what makes the handshake safe).
	o.SetFlagBits(FlagFLC)
	hp := o.HeaderAddr()
	if w := atomic.LoadUint32(hp); w&TIDMask == 0 || IsInflated(w) {
		// Released (or inflated) in the window: no need to park.
		return
	}
	start := lockevent.Start(lockevent.Unpark)
	parked := threading.Park(t, o, func() bool {
		w := atomic.LoadUint32(hp)
		if w&TIDMask == 0 || IsInflated(w) || o.Flags()&FlagFLC == 0 {
			return false
		}
		// Counted before the thread sleeps, so a watcher sees the park.
		l.queuedParks.Add(1)
		lockevent.Emit(lockevent.QueuedPark, t, o)
		return true
	})
	if parked {
		lockevent.End(lockevent.Unpark, t, o, start)
	}
}

// wakeQueued clears the flc bit and releases every parked contender.
// Called by the releasing owner after its unlock store.
func (l *ThinLocks) wakeQueued(o *object.Object) {
	o.ClearFlagBits(FlagFLC)
	threading.UnparkAll(o)
	l.flcWakeups.Add(1)
	lockevent.Emit(lockevent.QueueWake, nil, o)
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
