package monitor

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/threading"
)

// TestSpinnerNeverOvertakesQueue: while threads are queued, neither a
// contender in Enter's spin phase nor a TryEnter poller, both of which
// take the monitor only by a CAS of state from 0, gets it ahead of
// them, and the queued threads are granted it in the order they queued.
func TestSpinnerNeverOvertakesQueue(t *testing.T) {
	t.Parallel()
	const queued = 3
	for round := 0; round < 10; round++ {
		ths := newThreads(t, queued+3)
		owner, spinner, poller := ths[0], ths[queued+1], ths[queued+2]
		m := New()
		m.Enter(owner, nil)

		var mu sync.Mutex
		var order []int
		enterRecordExit := func(i int, enter func()) {
			enter()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if err := m.Exit(ths[i]); err != nil {
				t.Error(err)
			}
		}
		var wg sync.WaitGroup
		for i := 1; i <= queued; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				enterRecordExit(i, func() { m.Enter(ths[i], nil) })
			}(i)
			waitFor(t, func() bool { return m.EntryQueueLen() == i })
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			enterRecordExit(queued+1, func() { m.Enter(spinner, nil) })
		}()
		go func() {
			defer wg.Done()
			enterRecordExit(queued+2, func() {
				for !m.TryEnter(poller) {
					runtime.Gosched()
				}
			})
		}()
		time.Sleep(time.Duration(round) * 20 * time.Microsecond)
		if err := m.Exit(owner); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i := 0; i < queued; i++ {
			if order[i] != i+1 {
				t.Fatalf("round %d: acquisition order %v, want the queued threads 1..%d first, in order", round, order, queued)
			}
		}
		if !m.Quiescent() {
			t.Fatalf("round %d: monitor not quiescent: %v", round, m)
		}
	}
}

// TestStateStress runs every monitor operation against one monitor:
// nested enters and exits, TryEnter, waits with and without a timeout,
// notify and notifyAll, holds long enough to queue contenders, and
// interrupts from outside. Every critical
// section checks mutual exclusion and the owner index. Under the race
// detector every step the monitor takes with its lot bucket locked is
// also checked: state 0 must imply no entry parker, and the queued bit
// must match the lot (checkLocked). So `go test -race` is the run that
// matters.
func TestStateStress(t *testing.T) {
	t.Parallel()
	const workers = 4
	iters := 1000
	if testing.Short() {
		iters = 150
	}
	ths := newThreads(t, workers)
	m := New()
	var inside atomic.Int32
	critical := func(th *threading.Thread) {
		if n := inside.Add(1); n != 1 {
			t.Errorf("%d threads inside the monitor", n)
		}
		if got := m.OwnerIndex(); got != th.Index() {
			t.Errorf("owner index %d inside %v's critical section", got, th)
		}
		inside.Add(-1)
	}
	stop := make(chan struct{})
	var interrupter sync.WaitGroup
	interrupter.Add(1)
	go func() {
		defer interrupter.Done()
		r := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
				ths[r.Intn(workers)].Interrupt()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			r := rand.New(rand.NewSource(int64(w) + 2))
			for i := 0; i < iters; i++ {
				if r.Intn(4) == 0 {
					if !m.TryEnter(th) {
						continue
					}
				} else {
					m.Enter(th, nil)
				}
				critical(th)
				depth := 1 + r.Intn(3)
				for d := 1; d < depth; d++ {
					m.Enter(th, nil)
				}
				switch r.Intn(5) {
				case 0:
					if _, err := m.Wait(th, time.Duration(r.Intn(200))*time.Microsecond); err != nil && err != threading.ErrInterrupted {
						t.Error(err)
					}
					if got := m.Count(); got != uint32(depth) {
						t.Errorf("count %d after a wait at depth %d", got, depth)
					}
				case 1:
					if err := m.Notify(th); err != nil {
						t.Error(err)
					}
				case 2:
					if err := m.NotifyAll(th); err != nil {
						t.Error(err)
					}
				case 3:
					// A long hold: contenders spend their spin budget
					// and queue.
					time.Sleep(300 * time.Microsecond)
				}
				critical(th)
				for d := 0; d < depth; d++ {
					if err := m.Exit(th); err != nil {
						t.Error(err)
					}
				}
			}
			th.Interrupted() // clear a leftover interrupt
		}(w)
	}
	wg.Wait()
	close(stop)
	interrupter.Wait()
	if !m.Quiescent() {
		t.Fatalf("monitor not quiescent after the stress: %v", m)
	}
}

// TestCheckLockedCatchesBrokenState: the check that race builds run
// with the monitor's lot bucket locked panics on a free monitor with an
// entry parker and on a queued bit that disagrees with the lot. It
// files the entry parker without blocking (a waiter, relabeled) and
// runs the check in a validate, as a contender does.
func TestCheckLockedCatchesBrokenState(t *testing.T) {
	t.Parallel()
	if !checkInvariants {
		t.Skip("the state check is compiled in under -race only")
	}
	ths := newThreads(t, 2)
	for _, tc := range []struct {
		name   string
		state  uint32
		parker bool
	}{
		{"free with an entry parker", 0, true},
		{"owned, queued bit without an entry parker", ownerState(ths[0]) | queuedBit, false},
		{"owned, entry parker without the queued bit", ownerState(ths[0]), true},
	} {
		m := New()
		m.state.Store(tc.state)
		if tc.parker {
			threading.File(ths[0], m, 1)
			threading.Relabel(m, 1, nil)
		}
		var caught any
		threading.Park(ths[1], m, func() bool {
			defer func() { caught = recover() }()
			m.checkLocked()
			return false
		})
		if caught == nil {
			t.Errorf("%s: checkLocked did not panic", tc.name)
		}
		if tc.parker && threading.UnparkAll(m) != 1 {
			t.Fatalf("%s: the entry parker was not filed", tc.name)
		}
	}
}
