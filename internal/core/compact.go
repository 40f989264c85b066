package core

import (
	"sync/atomic"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Compact monitors (Options.Compact): an extension after Dice & Kogan's
// Compact Java Monitors, in which an object's header only ever holds a
// thin word and every blocked thread waits on the threading package's
// parking lot, keyed by the object. Nothing inflates, so nothing has to
// deflate, and lock memory is bounded by blocked threads rather than by
// objects that were once contended.
//
//	contender:  spin the thread's budget (arch.SpinBudget) of back-off
//	            rounds on the thin word; then set flc in the flags word,
//	            re-read the lock word and park on the lot as an entry
//	            parker (queueWait), whose validate re-reads the lock
//	            word and flc with the object's lot bucket locked.
//	final unlock: store the unlocked header, then load the flags word;
//	            if flc is set, clear it and wake the object's entry
//	            parkers (threading.UnparkAll, under the same bucket
//	            lock). Waiters stay asleep.
//	wait:       with the lock still held, file the thread's park node on
//	            the lot as a waiter carrying the full recursion depth
//	            (threading.File); release the lock as a final unlock
//	            does; sleep. Then re-acquire like a contender and
//	            restore the depth.
//	notify:     relabel the longest-filed waiter (notifyAll: every
//	            waiter) as an entry parker (threading.Relabel), then set
//	            flc. The notifier's own final unlock wakes it, so no
//	            waiter wakes into a lock that is still held.
//
// A waiter's node has three states: filed as a waiter, filed as an
// entry parker (after a notify), and released (its key cleared by
// UnparkAll). A timeout or interrupt removes a node that
// is still a waiter, and the wait reports it; a relabeled node was
// notified, and its thread sleeps on, untimed, until the release that
// the notify made it owed, as a notified Java thread re-enters its
// monitor whatever its timeout.
//
// The flc (flat lock contention) handshake is the Tasuki locks'
// (Onodera & Kawachiya, OOPSLA'99), which answer the one pathological
// case the paper names for spinning, a lock held for a long time
// (§2.3.4). The bit lives in the flags word, where the owner's
// lock-word stores can never clobber it. Both sides' lock-word and flag
// operations are sequentially consistent atomics, so the Dekker
// argument applies: if the contender parked, the owner's release either
// preceded the contender's re-read (which then saw the lock free) or
// the owner's flag load follows the contender's flag store (and the
// owner wakes the parkers). The bucket lock closes the remaining
// window: an owner whose flag load saw flc either finds the contender
// parked or released before validate ran, and validate then sees the
// lock free or flc cleared. No wakeup can be lost. The argument needs
// the final unlock's header store to stay sequentially consistent
// (atomic.StoreUint32, XCHG on amd64): a release store would let the
// flags load pass it, and an entry parker could then sleep through the
// release.
//
// Notify relabels before it sets flc. An unlocker that read flc before
// the notifier acquired clears flc before it wakes, so if its clear
// erases the notifier's flc, its wake comes later still and finds the
// relabeled node; otherwise flc survives for the notifier's own unlock.
//
// Nesting past the thin count field goes to a side count
// (monitor.SideCounts, which fat monitors use past their own count
// field) that only the owner touches, so a thin word never overflows.

// FlagFLC is the flat-lock-contention bit in the object's flags word.
const FlagFLC uint32 = 1 << 0

// lockCompact is lockSlowBody for compact monitors: it never inflates.
func (l *ThinLocks) lockCompact(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	hp := o.HeaderAddr()
	shifted := t.Shifted()
	var b arch.Backoff
	var rounds uint // t's spin budget, read when the spin starts
	spun, ranOut := false, false
	for {
		w := atomic.LoadUint32(hp)
		x := w ^ shifted
		switch {
		case x < l.nestedLimit:
			// Thin, owned by this thread, count below the field's
			// maximum: nested lock by plain store.
			atomic.StoreUint32(hp, w+CountUnit)
			return

		case x&TIDMask == 0:
			// Owned by this thread with the count field saturated: the
			// deeper levels go to the side count.
			l.deep.Deeper(o)
			return

		case w&TIDMask == 0:
			if arch.CAS(cpu, hp, w, w&MiscMask|shifted) {
				if spun {
					l.spinAcq.Add(1)
					if !ranOut {
						t.Spin().Ended(true)
					}
				}
				if fence {
					arch.ISync()
				}
				return
			}
			lockevent.Emit(lockevent.CASFail, t, o)

		default:
			if !spun {
				lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitQueued))
				spun = true
				rounds = t.Spin().Rounds()
			}
			if b.Rounds() < rounds {
				l.spinRounds.Add(1)
				lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitSpin))
				b.Pause()
				continue
			}
			if !ranOut {
				t.Spin().Ended(false)
				ranOut = true
			}
			lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitQueued))
			l.queueWait(t, o)
		}
	}
}

// waitCompact is Wait for compact monitors. The recursion depth rides in
// t's park node from File to the re-acquisition.
func (l *ThinLocks) waitCompact(t *threading.Thread, o *object.Object, d time.Duration) (notified bool, err error) {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	if w&TIDMask != t.Shifted() {
		return false, ErrIllegalMonitorState
	}
	if t.Interrupted() { // clears the status, as Java does when throwing
		return false, threading.ErrInterrupted
	}
	lockevent.Emit(lockevent.MonitorWait, t, nil)
	depth := ThinCount(w) + 1
	if depth > l.maxCount {
		depth += l.deep.Take(o)
	}
	threading.File(t, o, depth)
	atomic.StoreUint32(hp, w&MiscMask)
	l.maybeWakeQueued(o)

	notified = threading.Sleep(t, d)
	if !notified {
		if t.Interrupted() {
			err = threading.ErrInterrupted
		} else {
			lockevent.Emit(lockevent.WaitTimeout, t, nil)
		}
	}
	l.lockCompact(t, o, arch.PowerPCUP, false)
	if extra := t.ParkNode().Count - 1; extra > 0 {
		thin := min(extra, l.maxCount)
		atomic.StoreUint32(hp, atomic.LoadUint32(hp)+thin*CountUnit)
		l.deep.Set(o, extra-thin)
	}
	return notified, err
}

// notifyCompact relabels up to max (all, if negative) of o's waiters as
// entry parkers, for the caller's final unlock to wake.
func (l *ThinLocks) notifyCompact(t *threading.Thread, o *object.Object, max int) error {
	if o.Header()&TIDMask != t.Shifted() {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.Notify, t, nil)
	if threading.Relabel(o, max, nil) > 0 && !l.mut.LotDropWake {
		o.SetFlagBits(FlagFLC)
	}
	return nil
}

// queueWait blocks t until o's thin lock is released (or briefly, on any
// wake). Returns immediately if the lock is observed free.
func (l *ThinLocks) queueWait(t *threading.Thread, o *object.Object) {
	// Publish contention before re-checking the lock word (store→load
	// ordering is what makes the handshake safe).
	o.SetFlagBits(FlagFLC)
	hp := o.HeaderAddr()
	skip := l.mut.LotSkipValidate
	if skip {
		time.Sleep(5 * time.Millisecond) // seeded bug: see mutation.go
	} else if atomic.LoadUint32(hp)&TIDMask == 0 {
		// Released in the window: no need to park.
		return
	}
	start := lockevent.Start(lockevent.Unpark)
	parked := threading.Park(t, o, func() bool {
		if !skip && (atomic.LoadUint32(hp)&TIDMask == 0 || o.Flags()&FlagFLC == 0) {
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

// wakeQueued clears the flc bit and releases every entry parker.
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
// mutation (see mutation.go). A wait's release is deliberately not
// routed through here: the mutation models a bug in the unlock path
// only. It is small enough to inline, so a final unlock that finds flc
// clear makes no call.
func (l *ThinLocks) wakeAfterUnlock(o *object.Object) {
	if o.Flags()&FlagFLC != 0 && !l.mut.DropQueuedWake {
		l.wakeQueued(o)
	}
}
