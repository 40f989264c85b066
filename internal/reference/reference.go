// Package reference provides a deliberately simple, obviously-correct
// monitor implementation used as a differential-testing oracle: a global
// mutex guards a map from object id to a straightforward monitor state
// machine. It makes no attempt to be fast; its only job is to define the
// expected observable behaviour (ownership, recursion counts, error
// cases, wait/notify transfers) that the optimized implementations —
// thin locks and both baselines — must match on identical traces.
package reference

import (
	"sync"
	"time"

	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState mirrors the shared error for misuse.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// state is the oracle's per-object monitor.
type state struct {
	owner   *threading.Thread
	count   int
	waiters []*waiter
	// entryWake signals lock availability to blocked entrants.
	entryWake chan struct{}
}

type waiter struct {
	ch       chan struct{} // closed on notify
	notified bool
}

// Locker is the oracle. It implements lockapi.Locker.
type Locker struct {
	mu     sync.Mutex
	states map[uint64]*state
}

// New returns an empty oracle.
func New() *Locker {
	return &Locker{states: make(map[uint64]*state)}
}

// Name implements lockapi.Locker.
func (l *Locker) Name() string { return "Reference" }

// get returns the state for o, creating it if needed. Caller holds l.mu.
func (l *Locker) get(o *object.Object) *state {
	s := l.states[o.ID()]
	if s == nil {
		s = &state{entryWake: make(chan struct{})}
		l.states[o.ID()] = s
	}
	return s
}

// Lock implements lockapi.Locker.
func (l *Locker) Lock(t *threading.Thread, o *object.Object) {
	for {
		l.mu.Lock()
		s := l.get(o)
		if s.owner == nil {
			s.owner = t
			s.count = 1
			l.mu.Unlock()
			return
		}
		if s.owner == t {
			s.count++
			l.mu.Unlock()
			return
		}
		wake := s.entryWake
		l.mu.Unlock()
		<-wake // wait for a release broadcast, then retry
	}
}

// Unlock implements lockapi.Locker.
func (l *Locker) Unlock(t *threading.Thread, o *object.Object) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(o)
	if s.owner != t {
		return ErrIllegalMonitorState
	}
	s.count--
	if s.count == 0 {
		s.owner = nil
		close(s.entryWake)
		s.entryWake = make(chan struct{})
	}
	return nil
}

// Wait implements lockapi.Locker.
func (l *Locker) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	l.mu.Lock()
	s := l.get(o)
	if s.owner != t {
		l.mu.Unlock()
		return false, ErrIllegalMonitorState
	}
	if t.IsInterrupted() {
		l.mu.Unlock()
		t.Interrupted()
		return false, threading.ErrInterrupted
	}
	w := &waiter{ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	saved := s.count
	s.count = 0
	s.owner = nil
	close(s.entryWake)
	s.entryWake = make(chan struct{})
	l.mu.Unlock()

	// Block on the notify, the timer, or the thread's park permit, which
	// Interrupt releases. A permit with no interrupt status behind it is
	// a leftover from an earlier wake: keep waiting.
	var timeout <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	permit := t.Parker().C()
wait:
	for {
		select {
		case <-w.ch:
			break wait
		case <-timeout:
			break wait
		case <-permit:
			if t.IsInterrupted() {
				break wait
			}
		}
	}

	// One outcome, decided under the lock as in internal/monitor: a
	// notified waiter reports the notification and keeps any interrupt
	// status; otherwise it leaves the wait set and reports an interrupt
	// (consuming the status) or a timeout.
	l.mu.Lock()
	notified := w.notified
	interrupted := false
	if !notified {
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		interrupted = t.Interrupted()
	}
	l.mu.Unlock()

	// Re-acquire at the saved depth.
	l.Lock(t, o)
	l.mu.Lock()
	s.count = saved
	l.mu.Unlock()
	if interrupted {
		return false, threading.ErrInterrupted
	}
	return notified, nil
}

// Notify implements lockapi.Locker.
func (l *Locker) Notify(t *threading.Thread, o *object.Object) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(o)
	if s.owner != t {
		return ErrIllegalMonitorState
	}
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.notified = true
		close(w.ch)
	}
	return nil
}

// NotifyAll implements lockapi.Locker.
func (l *Locker) NotifyAll(t *threading.Thread, o *object.Object) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(o)
	if s.owner != t {
		return ErrIllegalMonitorState
	}
	for _, w := range s.waiters {
		w.notified = true
		close(w.ch)
	}
	s.waiters = nil
	return nil
}

// Owner reports the oracle's view of o's owner index (0 if unlocked).
func (l *Locker) Owner(o *object.Object) uint16 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.states[o.ID()]; s != nil && s.owner != nil {
		return s.owner.Index()
	}
	return 0
}

// Count reports the oracle's view of o's recursion count.
func (l *Locker) Count(o *object.Object) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.states[o.ID()]; s != nil {
		return s.count
	}
	return 0
}
