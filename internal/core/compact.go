package core

import (
	"sync"
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
//	contender:  spin arch.SpinRounds back-off rounds on the thin word;
//	            then set flc in the flags word and park on the lot as
//	            an entry parker (queueWait, as in the queued extension).
//	final unlock: store the unlocked header, then load the flags word;
//	            if flc is set, clear it and wake the object's entry
//	            parkers (threading.UnparkAll). Waiters stay asleep.
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
// A waiter's node has three states: filed as a waiter (LotWait), filed
// as an entry parker (LotEntry, after a notify), and released (its key
// cleared by UnparkAll). A timeout or interrupt removes a node that
// is still a waiter, and the wait reports it; a relabeled node was
// notified, and its thread sleeps on, untimed, until the release that
// the notify made it owed, as a notified Java thread re-enters its
// monitor whatever its timeout.
//
// The flags-word handshake is the queued extension's Dekker argument
// (queued.go), and it needs the final unlock's header store to stay
// sequentially consistent (atomic.StoreUint32, XCHG on amd64): a release
// store would let the flags load pass it, and an entry parker could then
// sleep through the release. Notify relabels before it sets flc. An
// unlocker that read flc before the notifier acquired clears flc before
// it wakes, so if its clear erases the notifier's flc, its wake comes
// later still and finds the relabeled node; otherwise flc survives for
// the notifier's own unlock.
//
// Nesting past the thin count field goes to a side count (sideCounts)
// that only the owner touches, so a thin word never overflows.

// lockCompact is lockSlowBody for compact monitors: it never inflates.
func (l *ThinLocks) lockCompact(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	hp := o.HeaderAddr()
	shifted := t.Shifted()
	var b arch.Backoff
	spun := false
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
			l.deep.deeper(o)
			return

		case w&TIDMask == 0:
			if arch.CAS(cpu, hp, w, w&MiscMask|shifted) {
				if spun {
					l.spinAcq.Add(1)
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
			}
			if !b.Spent() {
				l.spinRounds.Add(1)
				lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitSpin))
				b.Pause()
				continue
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
		depth += l.deep.take(o)
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
		l.deep.set(o, extra-thin)
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
	if threading.Relabel(o, max) > 0 && !l.mut.LotDropWake {
		o.SetFlagBits(FlagFLC)
	}
	return nil
}

// sideCounts holds, per object, the nesting levels past the thin count
// field's maximum. Only an object's owner reads or writes its entry; the
// mutex guards the map itself. The map is made on first use, so an
// instance that never nests that deep holds none.
type sideCounts struct {
	mu sync.Mutex
	m  map[*object.Object]uint32
}

// deeper adds one level to o's side count.
func (s *sideCounts) deeper(o *object.Object) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[*object.Object]uint32)
	}
	s.m[o]++
	s.mu.Unlock()
}

// shallower removes one level from o's side count, reporting whether
// there was one.
func (s *sideCounts) shallower(o *object.Object) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[o]
	switch n {
	case 0:
		return false
	case 1:
		delete(s.m, o)
	default:
		s.m[o] = n - 1
	}
	return true
}

// take removes o's side count and returns it.
func (s *sideCounts) take(o *object.Object) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[o]
	delete(s.m, o)
	return n
}

// set sets o's side count to n.
func (s *sideCounts) set(o *object.Object, n uint32) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[*object.Object]uint32)
	}
	s.m[o] = n
	s.mu.Unlock()
}
