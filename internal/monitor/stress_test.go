package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/threading"
)

// TestTimedWaitNotifyRaceStorm races timed waits against notifies: every
// waiter must wake exactly once (by notify or timeout), re-acquire, and
// exit cleanly; the monitor must end quiescent.
func TestTimedWaitNotifyRaceStorm(t *testing.T) {
	t.Parallel()
	reg := threading.NewRegistry()
	m := New()
	const waiters = 8
	const rounds = 30

	var wg sync.WaitGroup
	var wakes atomic.Int64
	for i := 0; i < waiters; i++ {
		th, err := reg.Attach("w")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(th *threading.Thread, i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m.Enter(th, nil)
				// Mix of timeouts near the notify cadence to force the
				// timeout-vs-notify race in both directions.
				d := time.Duration(1+(i+r)%3) * time.Millisecond
				if _, err := m.Wait(th, d); err != nil {
					t.Errorf("wait: %v", err)
				}
				wakes.Add(1)
				if err := m.Exit(th); err != nil {
					t.Errorf("exit: %v", err)
				}
			}
		}(th, i)
	}

	stop := make(chan struct{})
	notifier, err := reg.Attach("n")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Enter(notifier, nil)
			if err := m.Notify(notifier); err != nil {
				t.Error(err)
			}
			if err := m.Exit(notifier); err != nil {
				t.Error(err)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	if wakes.Load() != waiters*rounds {
		t.Fatalf("wakes = %d, want %d", wakes.Load(), waiters*rounds)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !m.Quiescent() {
		if time.Now().After(deadline) {
			t.Fatalf("monitor not quiescent: %v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMonitorAsCyclicBarrier builds a reusable barrier from the monitor
// primitives and runs several generations — a classic integration of
// enter/wait/notifyAll semantics.
func TestMonitorAsCyclicBarrier(t *testing.T) {
	t.Parallel()
	reg := threading.NewRegistry()
	m := New()
	const parties = 5
	const generations = 20

	var count int
	var generation int

	await := func(th *threading.Thread) {
		m.Enter(th, nil)
		gen := generation
		count++
		if count == parties {
			count = 0
			generation++
			if err := m.NotifyAll(th); err != nil {
				t.Error(err)
			}
		} else {
			for generation == gen {
				if _, err := m.Wait(th, 0); err != nil {
					t.Error(err)
					break
				}
			}
		}
		if err := m.Exit(th); err != nil {
			t.Error(err)
		}
	}

	results := make([][]int, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		th, err := reg.Attach("p")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, th *threading.Thread) {
			defer wg.Done()
			for g := 0; g < generations; g++ {
				results[p] = append(results[p], g)
				await(th)
			}
		}(p, th)
	}
	wg.Wait()
	for p := 0; p < parties; p++ {
		if len(results[p]) != generations {
			t.Fatalf("party %d completed %d generations", p, len(results[p]))
		}
	}
	if !m.Quiescent() {
		t.Fatal("barrier monitor not quiescent")
	}
}

// TestManyMonitorsConcurrently exercises the table and independent
// monitors in parallel.
func TestManyMonitorsConcurrently(t *testing.T) {
	t.Parallel()
	reg := threading.NewRegistry()
	tb := NewTable()
	const monitors = 16
	ms := make([]*Monitor, monitors)
	counters := make([]int64, monitors)
	for i := range ms {
		ms[i], _ = tb.Allocate()
	}
	const goroutines, iters = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th, err := reg.Attach("w")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed int, th *threading.Thread) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (seed*13 + i*7) % monitors
				ms[k].Enter(th, nil)
				counters[k]++
				if err := ms[k].Exit(th); err != nil {
					t.Error(err)
				}
			}
		}(g, th)
	}
	wg.Wait()
	var total int64
	for _, c := range counters {
		total += c
	}
	if total != goroutines*iters {
		t.Fatalf("total = %d, want %d", total, goroutines*iters)
	}
}
