package monitor

import (
	"testing"
	"time"
)

// contenderDelays are the pauses between starting a contender and
// acting on the monitor: none (the contender is usually still on its
// way in), a few spin rounds, the whole spin phase, and -1, which waits
// until the contender has queued.
var contenderDelays = []time.Duration{0, 20 * time.Microsecond, time.Millisecond, -1}

// TestQueuedThreadOwnsBeforeSpinner: a thread already queued must get
// the monitor on the owner's exit, however far a later contender has
// got with its spinning — it may still be spinning, or queued behind.
func TestQueuedThreadOwnsBeforeSpinner(t *testing.T) {
	t.Parallel()
	for _, delay := range contenderDelays {
		ths := newThreads(t, 3)
		m := New()
		m.Enter(ths[0], nil)
		queuedIn, release := make(chan struct{}), make(chan struct{})
		go func() {
			m.Enter(ths[1], nil)
			close(queuedIn)
			<-release
			if err := m.Exit(ths[1]); err != nil {
				t.Error(err)
			}
		}()
		waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
		lateIn := make(chan struct{})
		go func() {
			m.Enter(ths[2], nil)
			close(lateIn)
			if err := m.Exit(ths[2]); err != nil {
				t.Error(err)
			}
		}()
		if delay < 0 {
			waitFor(t, func() bool { return m.EntryQueueLen() == 2 })
		} else {
			time.Sleep(delay)
		}
		if err := m.Exit(ths[0]); err != nil {
			t.Fatal(err)
		}
		if got := m.Owner(); got != ths[1] {
			t.Fatalf("delay %v: owner after exit = %v, want the queued thread %v", delay, got, ths[1])
		}
		<-queuedIn
		select {
		case <-lateIn:
			t.Fatalf("delay %v: late contender entered while the queued thread held the monitor", delay)
		default:
		}
		close(release)
		select {
		case <-lateIn:
		case <-time.After(5 * time.Second):
			t.Fatalf("delay %v: late contender never entered", delay)
		}
	}
}

// TestEnterIfActiveRacingRetire: a contender calls EnterIfActive on a
// held monitor and the holder then retires it. Either the retirement
// wins, and the contender's call returns false without ever owning the
// monitor, or the contender has queued, the retirement is refused, and
// the holder's exit hands the monitor to it.
func TestEnterIfActiveRacingRetire(t *testing.T) {
	t.Parallel()
	var retired, refused int
	for _, delay := range contenderDelays {
		ths := newThreads(t, 2)
		m := New()
		m.Enter(ths[0], nil)
		result := make(chan bool, 1)
		go func() {
			ok := m.EnterIfActive(ths[1], nil)
			if ok {
				if got := m.Owner(); got != ths[1] {
					t.Errorf("EnterIfActive returned true, owner = %v", got)
				}
				if err := m.Exit(ths[1]); err != nil {
					t.Error(err)
				}
			}
			result <- ok
		}()
		if delay < 0 {
			waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
		} else {
			time.Sleep(delay)
		}
		if m.Retire(ths[0]) {
			retired++
			select {
			case ok := <-result:
				if ok {
					t.Fatalf("delay %v: contender entered a retired monitor", delay)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("delay %v: contender still inside EnterIfActive after the retirement", delay)
			}
			continue
		}
		refused++
		if n := m.EntryQueueLen(); n != 1 {
			t.Fatalf("delay %v: retirement refused with %d queued, want 1", delay, n)
		}
		if err := m.Exit(ths[0]); err != nil {
			t.Fatal(err)
		}
		select {
		case ok := <-result:
			if !ok {
				t.Fatalf("delay %v: queued contender refused after a refused retirement", delay)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delay %v: queued contender never got the monitor", delay)
		}
	}
	if refused == 0 {
		t.Error("no round queued the contender before the retirement")
	}
	t.Logf("retirement won %d rounds, contender queued first in %d", retired, refused)
}
