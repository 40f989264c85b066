package monitor

import (
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
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
		if got := m.OwnerIndex(); got != ths[1].Index() {
			t.Fatalf("delay %v: owner after exit = %d, want the queued thread %d", delay, got, ths[1].Index())
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

// spinProbe counts one thread's Spin events, and can stall that thread
// inside its next one, between the event and the back-off pause after
// it.
type spinProbe struct {
	th    *threading.Thread
	spins atomic.Int64
	stall atomic.Pointer[func()]
}

func (p *spinProbe) LockEvent(k lockevent.Kind, t *threading.Thread, _ *object.Object, _ int64) {
	if k != lockevent.Spin || t != p.th {
		return
	}
	p.spins.Add(1)
	if f := p.stall.Swap(nil); f != nil {
		(*f)()
	}
}

// TestEntrySpinBudgetAdapts: a contender's entry spin follows its
// thread's budget. A fresh thread spins arch.SpinRounds pauses and
// parks; its next spin makes only the arch.BusyRounds busy pauses; a
// spin that acquires restores the full budget. The test is not
// parallel: its observer sees every Spin event in the process.
func TestEntrySpinBudgetAdapts(t *testing.T) {
	ths := newThreads(t, 2)
	a, b := ths[0], ths[1]
	m := New()
	p := &spinProbe{th: b}
	lockevent.Install(lockevent.SlotRecorder, p, lockevent.Of(lockevent.Spin))
	t.Cleanup(func() { lockevent.Install(lockevent.SlotRecorder, nil, 0) })

	// contend has b enter while a holds the monitor and returns b's
	// spin pauses. a exits once b has queued, or, with stall, while b
	// is stalled in its first pause, so that b acquires by its spin.
	contend := func(stall bool) int64 {
		base := p.spins.Load()
		m.Enter(a, nil)
		stalled, released := make(chan struct{}), make(chan struct{})
		if stall {
			f := func() { close(stalled); <-released }
			p.stall.Store(&f)
		}
		done := make(chan struct{})
		go func() {
			m.Enter(b, nil)
			if err := m.Exit(b); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		if stall {
			<-stalled
		} else {
			waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
		}
		if err := m.Exit(a); err != nil {
			t.Fatal(err)
		}
		close(released)
		<-done
		return p.spins.Load() - base
	}
	for i, tc := range []struct {
		stall bool
		want  int64
	}{
		{false, arch.SpinRounds}, // a fresh thread: the full budget, then a park
		{false, arch.BusyRounds}, // after that park: the busy rounds only
		{true, 1},                // acquires in its first pause
		{false, arch.SpinRounds}, // which restored the full budget
	} {
		if got := contend(tc.stall); got != tc.want {
			t.Fatalf("contention %d: b spun %d pauses, want %d", i+1, got, tc.want)
		}
	}
}
