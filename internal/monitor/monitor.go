// Package monitor implements the heavy-weight ("fat") locks that thin
// locks inflate into, together with the global table mapping 23-bit
// monitor indices to monitor structures.
//
// The paper assumes "a pre-existing heavy-weight system ... to support the
// full range of Java synchronization semantics, including queuing of
// unsatisfied lock requests, and the wait, notify, and notifyAll
// operations. Such a system will represent a monitor as a multi-word
// structure which includes space for a thread pointer, a nested lock
// count, and the necessary queues." (§2.1). This package is that system
// in one 32-bit word, encoded as the thin lock word is (§2.3): the
// owner's thread index and the lock count (the number of locks, not the
// number minus one as in a thin lock — Figure 2). The threads it blocks
// wait on the threading package's parking lot, keyed by the monitor's
// address, as in Dice & Kogan's Compact Java Monitors. A contender
// parks there as an entry parker, a waiter is filed there, and a notify
// relabels waiters as entry parkers. So a Monitor is 4 bytes and holds
// no pointer: blocking allocates nothing, and no monitor references a
// thread. A Monitor does not know its index; the Table that holds it by
// value does.
//
// The word, state, holds the lock count in its top 16 bits, the
// owner's thread index in the 15 bits below, and in bit 0 the queued
// bit, set while an entry parker is filed on the monitor; 0 is a free
// monitor. A count past the field's 65,535 saturates it and spills the
// rest into a side count keyed by the monitor (SideCounts), which only
// the owner touches. As in HotSpot's ObjectMonitor, an uncontended
// Enter is one CAS of state from 0 and an uncontended Exit one CAS back
// to 0. A nested Enter or Exit adds to the word with one atomic add:
// the owner is the only thread that changes the count, but a parking
// contender may CAS the queued bit into the word at any moment, and a
// plain store could erase it. The queued bit changes only with the
// monitor's lot bucket locked: a parking contender's validate and a
// notify's relabel set it, and an exit's handoff grant sets or clears
// it. So an Exit that finds the bit set hands off (threading.Handoff).
//
// Entry spins, then parks. A thread that finds the monitor owned polls
// state between arch.Backoff pauses for as many rounds as its thread's
// spin budget allows (arch.SpinBudget), and only then parks. The paper
// keeps a contended object inflated (§2.3.4), so every later contention
// for it meets a monitor; when holds are short, spinning first saves the
// park and the handoff.
// Parked threads are served by direct handoff: when the owner exits, the
// longest-parked entry parker is granted ownership before it resumes,
// which keeps entry FIFO-fair.
//
// The two compose through one invariant: with the bucket locked, state
// == 0 implies no entry parker, and the queued bit is set exactly when
// one is filed. A spinner takes the monitor only by a CAS from 0, so it
// can never overtake a parked thread; it competes only with other
// arrivals. Race builds check the invariant at each of the monitor's
// bucket-locked steps (invariant_race.go).
package monitor

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread performs exit, wait,
// notify or notifyAll on a monitor it does not own, mirroring Java's
// IllegalMonitorStateException.
var ErrIllegalMonitorState = errors.New("monitor: thread does not own monitor")

// The fields of state.
const (
	// queuedBit is set while an entry parker is filed on the monitor.
	queuedBit uint32 = 1
	// countShift is where the lock count starts, above the owner's
	// thread index in bits 1 to threading.IndexBits.
	countShift = threading.IndexBits + 1
	// countUnit is one level of the lock count.
	countUnit uint32 = 1 << countShift
	// ownerMask selects the owner's thread index << 1.
	ownerMask = countUnit - 2
	// maxCount is the largest count the word encodes; the levels past
	// it are in spill.
	maxCount = 1<<(32-countShift) - 1
)

// spill holds the monitors' lock counts past maxCount. Only a thread
// that nests one monitor more than 65,535 deep touches it; no benchmark
// workload does.
var spill SideCounts[*Monitor]

// Monitor is a heavy-weight recursive lock with condition-variable
// semantics. The zero value is a free monitor; Table.Allocate hands out
// the ones a table holds, and New makes a standalone one.
type Monitor struct {
	// state is the lock count << countShift | the owner's thread index
	// << 1 | queuedBit, or 0 when the monitor is free (and so no entry
	// parker is filed on it). The owner and the count change by CAS (a
	// free monitor taken, an unqueued one released), by the owner's
	// atomic add (a nested level) and by a handoff's grant; the queued
	// bit changes only with the monitor's lot bucket locked.
	state atomic.Uint32
}

// New returns a fresh unowned monitor that is not held in any table.
func New() *Monitor { return &Monitor{} }

// ownerState is t's owner field of state. Thread index 0 is reserved,
// so it is never 0.
func ownerState(t *threading.Thread) uint32 { return uint32(t.Index()) << 1 }

// held is the state of a monitor whose owner field is me and whose
// count is count, with the count field saturated at maxCount; spillPast
// files the rest.
func held(me, count uint32) uint32 { return me | min(count, maxCount)<<countShift }

// spillPast files the levels of count past maxCount in m's spill, for
// the thread that is taking m at that count.
func (m *Monitor) spillPast(count uint32) {
	if count > maxCount {
		spill.Set(m, count-maxCount)
	}
}

// String implements fmt.Stringer.
func (m *Monitor) String() string {
	entry, waiting := threading.Parked(m)
	return fmt.Sprintf("monitor(owner=%d count=%d entry=%d wait=%d)",
		m.OwnerIndex(), m.Count(), entry, waiting)
}

// checkLocked panics unless state == 0 implies no entry parker on m and
// the queued bit is set exactly when one is filed. It runs in race
// builds only (invariant_race.go), with m's lot bucket locked, at each
// step the monitor takes there: a contender's validate and an exit's
// grant check the state the steps before them published, and a
// notify's relabel checks the one it publishes.
func (m *Monitor) checkLocked() {
	if !checkInvariants {
		return
	}
	s := m.state.Load()
	entry, _ := threading.ParkedLocked(m)
	if s == 0 && entry != 0 {
		panic("monitor: free with an entry parker")
	}
	if (s&queuedBit != 0) != (entry != 0) {
		panic(fmt.Sprintf("monitor: queued bit %d with %d entry parkers", s&queuedBit, entry))
	}
}

// Enter acquires the monitor for t, blocking until it is available.
// Re-entry by the owner increments the lock count. o is the object the
// monitor guards: the spin rounds report it, so an observer knows what
// t waits for.
//
// A free monitor is taken with one CAS. A contender first spins: it
// polls state between back-off pauses, emitting one Spin event on o per
// pause, and takes the monitor if it finds state 0 (which implies no
// entry parker). Only when its budget's rounds run out does it park.
func (m *Monitor) Enter(t *threading.Thread, o *object.Object) {
	me := ownerState(t)
	if m.state.CompareAndSwap(0, me|countUnit) {
		return
	}
	m.enterSlow(t, o, me)
}

// enterSlow is Enter past its CAS: re-entry, the spin and the park.
func (m *Monitor) enterSlow(t *threading.Thread, o *object.Object, me uint32) {
	if s := m.state.Load(); s&ownerMask == me {
		m.nest(s)
		return
	}
	budget := t.Spin()
	var b arch.Backoff
	for rounds := budget.Rounds(); b.Rounds() < rounds; {
		lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitFat))
		b.Pause()
		if m.state.Load() == 0 && m.state.CompareAndSwap(0, me|countUnit) {
			budget.Ended(true)
			return
		}
	}
	budget.Ended(false)
	t.ParkNode().Count = 1
	m.park(t, me)
}

// nest adds a level for the owner, who read state as s: one atomic add
// to the count field, or a level of spill once the field is full.
func (m *Monitor) nest(s uint32) {
	if s>>countShift == maxCount {
		spill.Deeper(m)
		return
	}
	m.state.Add(countUnit)
}

// park acquires the monitor for t, whose owner field is me, at the
// count t's park node carries: at once if it is free, else as an entry
// parker on the lot once an exit hands it over.
func (m *Monitor) park(t *threading.Thread, me uint32) {
	start := lockevent.Start(lockevent.Unpark)
	if threading.Park(t, m, func() bool { return m.queue(t, me) }) {
		lockevent.End(lockevent.Unpark, t, nil, start) // the grant set state and spill
	}
}

// queue is a contender's validate, run with m's lot bucket locked: it
// takes a free monitor at the count t's park node carries and reports
// false, or sets the queued bit, so that the owner's Exit hands off,
// and reports true for t to park.
func (m *Monitor) queue(t *threading.Thread, me uint32) bool {
	m.checkLocked()
	for {
		s := m.state.Load()
		if s == 0 {
			count := t.ParkNode().Count
			if m.state.CompareAndSwap(0, held(me, count)) {
				m.spillPast(count)
				return false
			}
			continue
		}
		// The owner may release by CAS meanwhile, so the bit goes in
		// by CAS too; once it is set the owner must hand off.
		if s&queuedBit != 0 || m.state.CompareAndSwap(s, s|queuedBit) {
			depth := 0
			if lockevent.Wants(lockevent.Enqueue) {
				entry, _ := threading.ParkedLocked(m)
				depth = entry + 1
			}
			lockevent.EmitValue(lockevent.Enqueue, t, nil, int64(depth))
			return true
		}
	}
}

// TryEnter acquires the monitor only if it can do so without blocking,
// reporting whether it succeeded.
func (m *Monitor) TryEnter(t *threading.Thread) bool {
	me := ownerState(t)
	if m.state.CompareAndSwap(0, me|countUnit) {
		return true
	}
	if s := m.state.Load(); s&ownerMask == me {
		m.nest(s)
		return true
	}
	return false
}

// SeedOwner makes t the owner with the given lock count without blocking.
// It is used during inflation: the inflating thread already holds the
// object's thin lock, so it installs itself as the fat lock's owner
// before publishing the monitor index in the object header. Seeding a
// monitor that is in use is a bug in the caller.
func (m *Monitor) SeedOwner(t *threading.Thread, count uint32) {
	if entry, waiting := threading.Parked(m); m.state.Load() != 0 || entry+waiting != 0 {
		panic("monitor: SeedOwner on a monitor in use")
	}
	if count == 0 {
		panic("monitor: SeedOwner with zero count")
	}
	m.spillPast(count)
	m.state.Store(held(ownerState(t), count))
}

// Exit releases one level of the monitor. A nested level is one atomic
// add, or a level of spill. Releasing the last level of a monitor
// nobody parked on is one CAS; with the queued bit set it hands the
// monitor to the longest-parked entry parker.
func (m *Monitor) Exit(t *threading.Thread) error {
	s := m.state.Load()
	if s&ownerMask != ownerState(t) {
		return ErrIllegalMonitorState
	}
	switch n := s >> countShift; {
	case n == maxCount && spill.Shallower(m): // a level of the spill
	case n > 1:
		m.state.Add(^(countUnit - 1)) // one level off the count
	case s&queuedBit == 0 && m.state.CompareAndSwap(s, 0): // the last level; nobody parked
	default:
		m.handoff()
	}
	return nil
}

// handoff gives the monitor, whose owner is releasing its last level,
// to the longest-parked entry parker. The grant runs with the lot
// bucket locked and sets state and spill before that thread resumes.
// The queued bit stays set until then, because only a grant clears it,
// so no CAS from 0 can take the monitor in between. It is kept out of
// line, so Exit's body and frame stay those of its CAS fast path.
//
//go:noinline
func (m *Monitor) handoff() {
	threading.Handoff(m, func(next *threading.Thread, count uint32, more bool) {
		m.checkLocked()
		if next == nil {
			m.state.Store(0)
			return
		}
		s := held(ownerState(next), count)
		if more {
			s |= queuedBit
		}
		m.spillPast(count)
		m.state.Store(s)
		lockevent.Emit(lockevent.Handoff, next, nil)
	})
}

// Wait releases the monitor completely (whatever the recursion depth),
// blocks until notified, interrupted, or d elapses (d <= 0 waits
// forever), then re-acquires the monitor at the saved depth before
// returning.
//
// A wait reports exactly one outcome. notified is true, with a nil
// error, if Notify or NotifyAll chose the thread; a timeout or interrupt
// that races the notify then leaves the interrupt status as it is, so no
// notification is lost to an interrupt (JLS §17.2.4). Otherwise err is
// threading.ErrInterrupted if the thread's interrupt status was set when
// it left the wait set (the status is cleared, as in Java), and nil for a
// timeout. err is ErrIllegalMonitorState if t does not own the monitor.
//
// The waiter is filed on the lot, carrying its depth (spill included),
// before the monitor is released, so a notify that follows the release
// finds it. A notified waiter is an entry parker from the relabel on,
// and the handoff that releases it restores its depth; a timed-out or
// interrupted one re-acquires as a contender does, without the spin.
func (m *Monitor) Wait(t *threading.Thread, d time.Duration) (notified bool, err error) {
	me := ownerState(t)
	s := m.state.Load()
	if s&ownerMask != me {
		return false, ErrIllegalMonitorState
	}
	if t.Interrupted() { // clears the status, as Java does when throwing
		return false, threading.ErrInterrupted
	}
	lockevent.Emit(lockevent.MonitorWait, t, nil)
	count := s >> countShift
	if count == maxCount {
		count += spill.Take(m)
	}
	threading.File(t, m, count)
	if !m.state.CompareAndSwap(s&^queuedBit, 0) {
		m.handoff()
	}
	if threading.Sleep(t, d) {
		return true, nil
	}
	if t.Interrupted() {
		err = threading.ErrInterrupted
	} else {
		lockevent.Emit(lockevent.WaitTimeout, t, nil)
	}
	m.park(t, me)
	return false, err
}

// Notify turns the longest-waiting thread into an entry parker, which
// the owner's exit, or a later one, hands the monitor to. Waking a
// monitor with no waiters is a no-op, as in Java.
func (m *Monitor) Notify(t *threading.Thread) error { return m.notify(t, 1) }

// NotifyAll turns every waiting thread into an entry parker.
func (m *Monitor) NotifyAll(t *threading.Thread) error { return m.notify(t, -1) }

// notify relabels up to max (all, if negative) of m's waiters as entry
// parkers, in filing order.
func (m *Monitor) notify(t *threading.Thread, max int) error {
	if m.state.Load()&ownerMask != ownerState(t) {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.Notify, t, nil)
	threading.Relabel(m, max, m.markQueued)
	return nil
}

// markQueued sets the queued bit for the entry parkers a notify's
// relabel made. It runs with the bucket locked, on the owner's thread:
// only the owner changes the count and only a bucket holder the queued
// bit, so nothing else can change state meanwhile, and a plain load and
// store set it.
func (m *Monitor) markQueued() {
	m.state.Store(m.state.Load() | queuedBit)
	m.checkLocked()
}

// OwnerIndex returns the owning thread's index, or 0 if the monitor is
// free.
func (m *Monitor) OwnerIndex() uint16 { return uint16(m.state.Load() & ownerMask >> 1) }

// Count returns the current lock count, spill included, 0 when the
// monitor is free. Only the owner changes it, so it is exact for the
// owner and for a caller that has synchronized with the owner's last
// operation.
func (m *Monitor) Count() uint32 {
	n := m.state.Load() >> countShift
	if n == maxCount {
		n += spill.Get(m)
	}
	return n
}

// EntryQueueLen reports how many threads are parked entering, notified
// waiters included.
func (m *Monitor) EntryQueueLen() int {
	entry, _ := threading.Parked(m)
	return entry
}

// WaitSetLen reports how many threads are waiting to be notified.
func (m *Monitor) WaitSetLen() int {
	_, waiting := threading.Parked(m)
	return waiting
}

// Quiescent reports whether the monitor is unowned and no thread is
// parked or waiting on it.
func (m *Monitor) Quiescent() bool {
	entry, waiting := threading.Parked(m)
	return m.state.Load() == 0 && entry+waiting == 0
}
