// Package monitor implements the heavy-weight ("fat") locks that thin
// locks inflate into, together with the global table mapping 23-bit
// monitor indices to monitor structures.
//
// The paper assumes "a pre-existing heavy-weight system ... to support the
// full range of Java synchronization semantics, including queuing of
// unsatisfied lock requests, and the wait, notify, and notifyAll
// operations. Such a system will represent a monitor as a multi-word
// structure which includes space for a thread pointer, a nested lock
// count, and the necessary queues." (§2.1). This package is that system:
// a Monitor holds an owner word, the lock count (the number of locks,
// not the number minus one as in a thin lock — Figure 2), a latch, a
// FIFO entry queue and a wait set. The queues are intrusive circular
// lists of the blocked threads' own park nodes (threading.ParkNode), one
// word each, and each thread sleeps on its own Parker. So a Monitor is
// 32 bytes, two to a cache line: blocking allocates nothing, and a
// monitor whose queues have emptied references no thread. A Monitor
// does not know its index; the Table that holds it by value does.
//
// The owner word, state, names the owner by its thread index shifted
// left by one, with the low bit (queuedBit) set while the entry queue is
// non-empty; 0 is a free monitor. As in HotSpot's ObjectMonitor, an
// uncontended Enter is one CAS of state from 0 and an uncontended Exit
// one CAS back to 0; the latch is taken only to queue, to hand off, and
// for wait and notify. It guards the two queues and the queued bit, so
// an Exit that finds the bit set goes to the latch and hands off.
//
// Entry spins, then queues. A thread that finds the monitor owned polls
// state, without the latch, between arch.Backoff pauses for as many
// rounds as its thread's spin budget allows (arch.SpinBudget), and only
// then joins the entry queue and parks. The paper keeps a contended
// object inflated (§2.3.4), so every later contention for it meets a
// monitor; when holds are short, spinning first saves the park and the
// handoff.
// Queued threads are served by direct handoff: when the owner exits,
// ownership is transferred to the head of the entry queue before that
// thread resumes, which keeps the queue FIFO-fair.
//
// The two compose through one invariant: state == 0 implies the entry
// queue is empty. A spinner takes the monitor only by a CAS from 0, so it
// can never overtake a queued thread; it competes only with other
// arrivals. Race builds check the invariant after every change made
// under the latch, so every latch release publishes a checked state
// (invariant_race.go).
package monitor

import (
	"errors"
	"fmt"
	"sync"
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

// The values of a queued thread's ParkNode.State: where the node lives.
// Transitions happen under the monitor latch; the parked thread polls
// for stateGranted without it.
const (
	stateEntryQueue uint32 = iota // blocked entering; in the entry queue
	stateWaitSet                  // blocked in wait; in the wait set
	stateGranted                  // ownership handed to this node
)

// queuedBit is set in state while the entry queue is non-empty.
const queuedBit uint32 = 1

// Monitor is a heavy-weight recursive lock with condition-variable
// semantics. The zero value is a free monitor; Table.Allocate hands out
// the ones a table holds, and New makes a standalone one.
type Monitor struct {
	// state is the owner's thread index << 1 | queuedBit, or 0 when the
	// monitor is free (and so its entry queue is empty). The owner
	// half changes by CAS outside the latch (a free monitor taken, an
	// unqueued one released) and by handoff under it; the queued bit
	// changes only under the latch.
	state atomic.Uint32
	count uint32 // the owner's lock count; only the owner touches it
	latch sync.Mutex
	entry threading.Queue // FIFO entry queue
	waits threading.Queue // wait set, notified in FIFO order
}

// New returns a fresh unowned monitor that is not held in any table.
func New() *Monitor { return &Monitor{} }

// ownerState is t's owner half of state. Thread index 0 is reserved, so
// it is never 0.
func ownerState(t *threading.Thread) uint32 { return uint32(t.Index()) << 1 }

// String implements fmt.Stringer.
func (m *Monitor) String() string {
	m.latch.Lock()
	defer m.latch.Unlock()
	return fmt.Sprintf("monitor(owner=%d count=%d entry=%d wait=%d)",
		m.OwnerIndex(), m.count, m.entry.Len(), m.waits.Len())
}

// checkLocked panics unless state == 0 implies an empty entry queue and
// the queued bit is set exactly when the queue is non-empty. It runs in
// race builds only (invariant_race.go), after every change to the entry
// queue, the queued bit or the owner under the latch, so it sees the
// state each latch release publishes. Caller holds the latch.
func (m *Monitor) checkLocked() {
	if !checkInvariants {
		return
	}
	s := m.state.Load()
	queued := !m.entry.Empty()
	if s == 0 && queued {
		panic("monitor: free with a non-empty entry queue")
	}
	if (s&queuedBit != 0) != queued {
		panic(fmt.Sprintf("monitor: queued bit %d with %d queued threads", s&queuedBit, m.entry.Len()))
	}
}

// Enter acquires the monitor for t, blocking until it is available.
// Re-entry by the owner increments the lock count. o is the object the
// monitor guards: the spin rounds report it, so an observer knows what
// t waits for.
//
// A free monitor is taken with one CAS. A contender first spins: it
// polls state between back-off pauses, emitting one Spin event on o per
// pause, and takes the monitor if it finds state 0 (which implies an
// empty entry queue). Only when its budget's rounds run out does it
// queue and park.
func (m *Monitor) Enter(t *threading.Thread, o *object.Object) {
	me := ownerState(t)
	if m.state.CompareAndSwap(0, me) {
		m.count = 1
		return
	}
	m.enterSlow(t, o, me)
}

// enterSlow is Enter past its CAS: re-entry, the spin and the queue.
func (m *Monitor) enterSlow(t *threading.Thread, o *object.Object, me uint32) {
	if m.state.Load()&^queuedBit == me {
		m.count++
		return
	}
	budget := t.Spin()
	var b arch.Backoff
	for rounds := budget.Rounds(); b.Rounds() < rounds; {
		lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitFat))
		b.Pause()
		if m.state.Load() == 0 && m.state.CompareAndSwap(0, me) {
			m.count = 1
			budget.Ended(true)
			return
		}
	}
	budget.Ended(false)
	n := t.ParkNode()
	n.Count = 1
	m.latch.Lock()
	if m.queueLocked(n, me) {
		m.count = 1
		m.latch.Unlock()
		return
	}
	depth := 0
	if lockevent.Wants(lockevent.Enqueue) {
		depth = m.entry.Len()
	}
	m.latch.Unlock()
	lockevent.EmitValue(lockevent.Enqueue, t, nil, int64(depth))
	start := lockevent.Start(lockevent.Unpark)
	awaitGrant(n) // direct handoff: state and count already set for us
	lockevent.End(lockevent.Unpark, t, nil, start)
}

// queueLocked appends n, whose thread's owner half is me, to the entry
// queue and sets the queued bit, so that the owner's Exit hands off
// under the latch. If it finds the monitor free it takes it instead and
// reports true; the caller sets the count. Caller holds the latch.
func (m *Monitor) queueLocked(n *threading.ParkNode, me uint32) bool {
	for {
		s := m.state.Load()
		if s == 0 {
			if m.state.CompareAndSwap(0, me) {
				m.checkLocked()
				return true
			}
			continue
		}
		// The owner may release by CAS meanwhile, so the bit goes in
		// by CAS too; once it is set the owner must take the latch.
		if s&queuedBit != 0 || m.state.CompareAndSwap(s, s|queuedBit) {
			n.State.Store(stateEntryQueue)
			m.entry.Push(n)
			m.checkLocked()
			return false
		}
	}
}

// awaitGrant parks n's thread until an exiting owner hands it the
// monitor.
func awaitGrant(n *threading.ParkNode) {
	p := n.Thread().Parker()
	for n.State.Load() != stateGranted {
		p.Park()
	}
}

// TryEnter acquires the monitor only if it can do so without blocking,
// reporting whether it succeeded.
func (m *Monitor) TryEnter(t *threading.Thread) bool {
	me := ownerState(t)
	if m.state.CompareAndSwap(0, me) {
		m.count = 1
		return true
	}
	if m.state.Load()&^queuedBit == me {
		m.count++
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
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.state.Load() != 0 || !m.entry.Empty() || !m.waits.Empty() {
		panic("monitor: SeedOwner on a monitor in use")
	}
	if count == 0 {
		panic("monitor: SeedOwner with zero count")
	}
	m.count = count
	m.state.Store(ownerState(t))
	m.checkLocked()
}

// Exit releases one level of the monitor. Releasing the last level of a
// monitor nobody queues for is one CAS; with the queued bit set it hands
// the monitor to the head of the entry queue under the latch.
func (m *Monitor) Exit(t *threading.Thread) error {
	me := ownerState(t)
	s := m.state.Load()
	if s&^queuedBit != me {
		return ErrIllegalMonitorState
	}
	if m.count > 1 {
		m.count--
		return nil
	}
	m.count = 0
	if s == me && m.state.CompareAndSwap(me, 0) {
		return nil
	}
	// A thread queued: the bit is set and stays set until the latch is
	// ours, because only a latch holder clears it.
	m.latch.Lock()
	next := m.handoffLocked()
	m.latch.Unlock()
	unpark(next)
	return nil
}

// handoffLocked transfers ownership to the head of the entry queue and
// returns its thread, for the caller to unpark once it has released the
// latch; with an empty queue it frees the monitor and returns nil.
// Caller holds the latch and owns the monitor, whose count it has set to
// 0; no other thread can change state until this store.
func (m *Monitor) handoffLocked() *threading.Thread {
	n := m.entry.Pop()
	if n == nil {
		m.state.Store(0)
		m.checkLocked()
		return nil
	}
	th := n.Thread()
	s := ownerState(th)
	if !m.entry.Empty() {
		s |= queuedBit
	}
	m.count = n.Count
	m.state.Store(s)
	m.checkLocked()
	lockevent.Emit(lockevent.Handoff, th, nil)
	n.State.Store(stateGranted) // from here on n belongs to its thread
	return th
}

// unpark wakes a thread handoffLocked granted the monitor, if any.
func unpark(t *threading.Thread) {
	if t != nil {
		t.Parker().Unpark()
	}
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
func (m *Monitor) Wait(t *threading.Thread, d time.Duration) (notified bool, err error) {
	me := ownerState(t)
	if m.state.Load()&^queuedBit != me {
		return false, ErrIllegalMonitorState
	}
	if t.Interrupted() { // clears the status, as Java does when throwing
		return false, threading.ErrInterrupted
	}
	lockevent.Emit(lockevent.MonitorWait, t, nil)
	n := t.ParkNode()
	n.Count = m.count
	m.count = 0
	m.latch.Lock()
	n.State.Store(stateWaitSet)
	m.waits.Push(n)
	next := m.handoffLocked()
	m.latch.Unlock()
	unpark(next)

	sleep(t, n, d)
	if n.State.Load() == stateGranted {
		return true, nil
	}

	// Woken by a timeout or an interrupt. If a notify already moved the
	// node to the entry queue the wait was notified, and the handoff is
	// on its way. Otherwise leave the wait set and re-acquire the lock,
	// queueing like any entrant if it is owned.
	m.latch.Lock()
	if n.State.Load() != stateWaitSet {
		m.latch.Unlock()
		awaitGrant(n)
		return true, nil
	}
	m.waits.Remove(n)
	if t.Interrupted() {
		err = threading.ErrInterrupted
	}
	if m.queueLocked(n, me) {
		m.count = n.Count
		n.State.Store(stateGranted)
		m.latch.Unlock()
	} else {
		m.latch.Unlock()
		awaitGrant(n)
	}
	return false, err
}

// sleep parks a waiter until its node is granted the monitor, it is
// interrupted, or d (if positive) elapses.
func sleep(t *threading.Thread, n *threading.ParkNode, d time.Duration) {
	p := t.Parker()
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for n.State.Load() != stateGranted && !t.IsInterrupted() {
		if d <= 0 {
			p.Park()
			continue
		}
		left := time.Until(deadline)
		if left <= 0 {
			lockevent.Emit(lockevent.WaitTimeout, t, nil)
			return
		}
		p.ParkTimeout(left)
	}
}

// Notify moves the longest-waiting thread from the wait set to the entry
// queue. Waking a monitor with no waiters is a no-op, as in Java.
func (m *Monitor) Notify(t *threading.Thread) error {
	if m.state.Load()&^queuedBit != ownerState(t) {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.Notify, t, nil)
	m.latch.Lock()
	m.notifyOneLocked()
	m.latch.Unlock()
	return nil
}

// NotifyAll moves every waiting thread to the entry queue.
func (m *Monitor) NotifyAll(t *threading.Thread) error {
	if m.state.Load()&^queuedBit != ownerState(t) {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.Notify, t, nil)
	m.latch.Lock()
	for m.notifyOneLocked() {
	}
	m.latch.Unlock()
	return nil
}

// notifyOneLocked moves the head of the wait set to the entry queue,
// reporting whether there was one. Caller holds the latch and owns the
// monitor, so only the queued bit can change in state, and only under
// the latch: a plain read-then-store sets it.
func (m *Monitor) notifyOneLocked() bool {
	n := m.waits.Pop()
	if n == nil {
		return false
	}
	n.State.Store(stateEntryQueue)
	m.entry.Push(n)
	if s := m.state.Load(); s&queuedBit == 0 {
		m.state.Store(s | queuedBit)
	}
	m.checkLocked()
	return true
}

// OwnerIndex returns the owning thread's index, or 0 if the monitor is
// free.
func (m *Monitor) OwnerIndex() uint16 { return uint16(m.state.Load() >> 1) }

// Count returns the current lock count, 0 when the monitor is free.
// Only the owner changes it, so it is exact for the owner and for a
// caller that has synchronized with the owner's last operation.
func (m *Monitor) Count() uint32 { return m.count }

// EntryQueueLen reports how many threads are blocked entering.
func (m *Monitor) EntryQueueLen() int {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.entry.Len()
}

// WaitSetLen reports how many threads are in the wait set.
func (m *Monitor) WaitSetLen() int {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.waits.Len()
}

// Quiescent reports whether the monitor is unowned with empty queues.
func (m *Monitor) Quiescent() bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.state.Load() == 0 && m.entry.Empty() && m.waits.Empty()
}
