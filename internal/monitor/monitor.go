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
// a Monitor holds an owner thread pointer, the lock count (the number of
// locks, not the number minus one as in a thin lock — Figure 2), a FIFO
// entry queue and a wait set. The queues are intrusive lists of the
// blocked threads' own park nodes (threading.ParkNode), each thread
// sleeps on its own Parker, and a Monitor is 64 bytes: blocking
// allocates nothing, and a monitor whose queues have emptied references
// no thread.
//
// Entry spins, then queues. A thread that finds the monitor owned
// re-checks it under the latch between arch.Backoff pauses, for a fixed
// number of rounds (arch.SpinRounds), and only then joins the entry queue
// and parks. The paper keeps a contended object inflated (§2.3.4), so
// every later contention for it meets a monitor; when holds are short,
// spinning first saves the park and the handoff.
// Queued threads are served by direct handoff: when the owner exits,
// ownership is transferred to the head of the entry queue before that
// thread resumes, which keeps the queue FIFO-fair.
//
// The two compose through one invariant: owner == nil implies the entry
// queue is empty. A spinner takes the monitor only when it finds the
// owner nil, so it can never overtake a queued thread; it competes only
// with other arrivals.
package monitor

import (
	"errors"
	"fmt"
	"sync"
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

// Monitor is a heavy-weight recursive lock with condition-variable
// semantics. The zero value is unusable; create monitors with New or
// Table.Allocate.
type Monitor struct {
	latch sync.Mutex
	owner *threading.Thread
	count uint32
	index uint32          // index in the owning Table (0 if table-less)
	entry threading.Queue // FIFO entry queue
	waits threading.Queue // wait set, notified in FIFO order
}

// New returns a fresh unowned monitor that is not registered in any
// table (Index reports 0).
func New() *Monitor { return &Monitor{} }

// Index returns the monitor's index in its Table, or 0 if it was created
// with New.
func (m *Monitor) Index() uint32 { return m.index }

// String implements fmt.Stringer.
func (m *Monitor) String() string {
	m.latch.Lock()
	defer m.latch.Unlock()
	return fmt.Sprintf("monitor(idx=%d owner=%v count=%d entry=%d wait=%d)",
		m.index, m.owner, m.count, m.entry.Len(), m.waits.Len())
}

// Enter acquires the monitor for t, blocking until it is available.
// Re-entry by the owner increments the lock count. o is the object the
// monitor guards: the spin rounds report it, so an observer knows what
// t waits for.
//
// A contender first spins: it polls the monitor under the latch between
// back-off pauses, emitting one Spin event on o per pause, and takes the
// monitor if it finds the owner nil (which implies an empty entry
// queue). Only when the rounds run out does it queue and park.
func (m *Monitor) Enter(t *threading.Thread, o *object.Object) {
	var b arch.Backoff
	m.latch.Lock()
	for {
		switch {
		case m.owner == nil:
			m.owner = t
			m.count = 1
			m.latch.Unlock()
			return
		case m.owner == t:
			m.count++
			m.latch.Unlock()
			return
		}
		if b.Spent() {
			break
		}
		m.latch.Unlock()
		lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitFat))
		b.Pause()
		m.latch.Lock()
	}
	n := t.ParkNode()
	n.Count = 1
	n.State.Store(stateEntryQueue)
	m.entry.Push(n)
	depth := 0
	if lockevent.Wants(lockevent.Enqueue) {
		depth = m.entry.Len()
	}
	m.latch.Unlock()
	lockevent.EmitValue(lockevent.Enqueue, t, nil, int64(depth))
	start := lockevent.Start(lockevent.Unpark)
	awaitGrant(n) // direct handoff: owner/count already set for us
	lockevent.End(lockevent.Unpark, t, nil, start)
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
	m.latch.Lock()
	defer m.latch.Unlock()
	switch {
	case m.owner == nil:
		m.owner = t
		m.count = 1
		return true
	case m.owner == t:
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
	if m.owner != nil || !m.entry.Empty() || !m.waits.Empty() {
		panic("monitor: SeedOwner on a monitor in use")
	}
	if count == 0 {
		panic("monitor: SeedOwner with zero count")
	}
	m.owner = t
	m.count = count
}

// Exit releases one level of the monitor. Releasing the last level hands
// the monitor to the head of the entry queue, if any.
func (m *Monitor) Exit(t *threading.Thread) error {
	m.latch.Lock()
	if m.owner != t {
		m.latch.Unlock()
		return ErrIllegalMonitorState
	}
	m.count--
	var next *threading.Thread
	if m.count == 0 {
		next = m.handoffLocked()
	}
	m.latch.Unlock()
	unpark(next)
	return nil
}

// handoffLocked transfers ownership to the head of the entry queue and
// returns its thread, for the caller to unpark once it has released the
// latch; with an empty queue it marks the monitor unowned and returns
// nil. Caller holds the latch and has already set count to 0.
func (m *Monitor) handoffLocked() *threading.Thread {
	n := m.entry.Pop()
	if n == nil {
		m.owner = nil
		return nil
	}
	th := n.Thread()
	m.owner = th
	m.count = n.Count
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
	m.latch.Lock()
	if m.owner != t {
		m.latch.Unlock()
		return false, ErrIllegalMonitorState
	}
	if t.Interrupted() { // clears the status, as Java does when throwing
		m.latch.Unlock()
		return false, threading.ErrInterrupted
	}
	lockevent.Emit(lockevent.MonitorWait, t, nil)
	n := t.ParkNode()
	n.Count = m.count
	n.State.Store(stateWaitSet)
	m.waits.Push(n)
	m.count = 0
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
	if m.owner == nil {
		m.owner = t
		m.count = n.Count
		n.State.Store(stateGranted)
		m.latch.Unlock()
	} else {
		n.State.Store(stateEntryQueue)
		m.entry.Push(n)
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
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.Notify, t, nil)
	m.notifyOneLocked()
	return nil
}

// NotifyAll moves every waiting thread to the entry queue.
func (m *Monitor) NotifyAll(t *threading.Thread) error {
	m.latch.Lock()
	defer m.latch.Unlock()
	if m.owner != t {
		return ErrIllegalMonitorState
	}
	lockevent.Emit(lockevent.Notify, t, nil)
	for m.notifyOneLocked() {
	}
	return nil
}

// notifyOneLocked moves the head of the wait set to the entry queue,
// reporting whether there was one. Caller holds the latch.
func (m *Monitor) notifyOneLocked() bool {
	n := m.waits.Pop()
	if n == nil {
		return false
	}
	n.State.Store(stateEntryQueue)
	m.entry.Push(n)
	return true
}

// Owner returns the current owning thread, or nil.
func (m *Monitor) Owner() *threading.Thread {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.owner
}

// Count returns the current lock count.
func (m *Monitor) Count() uint32 {
	m.latch.Lock()
	defer m.latch.Unlock()
	return m.count
}

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
	return m.owner == nil && m.entry.Empty() && m.waits.Empty()
}
