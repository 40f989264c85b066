package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests for the compact half of the deflation extension
// (Options.RecycleMonitors): a deflated monitor's index is retired through the table's grace period
// and reused by later inflations, so the table footprint tracks the peak
// number of simultaneously inflated objects instead of every inflation
// ever performed.

func TestRecycleImpliesDeflation(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{RecycleMonitors: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	inflateByContention(t, f, a, b, o)

	// The contending thread's unlock was the final release of a fat lock
	// held once with empty queues, so the monitor deflated and its index
	// was freed.
	s := f.l.Stats()
	if s.Deflations == 0 {
		t.Fatal("RecycleMonitors did not deflate")
	}
	if s.MonitorFrees == 0 {
		t.Fatal("deflation did not free the monitor index")
	}
	if s.LiveMonitors != 0 {
		t.Fatalf("LiveMonitors = %d after full release, want 0", s.LiveMonitors)
	}
	if f.l.Inflated(o) {
		t.Fatal("header still inflated after deflation")
	}

	// The object must remain fully usable as a thin lock.
	f.l.Lock(a, o)
	if f.l.Inflated(o) {
		t.Fatal("re-lock of deflated object inflated")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

func TestRecycleReusesIndexAcrossObjects(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{RecycleMonitors: true})
	th := f.thread(t)

	// Single-threaded wait-timeout churn: each round inflates a fresh
	// object (wait needs queues), times out, re-acquires and fully
	// releases — deflating and freeing the monitor. With no concurrent
	// pins the grace period resolves immediately, so every round after
	// the first must reuse the first round's index.
	const rounds = 64
	for i := 0; i < rounds; i++ {
		o := f.heap.New("X")
		f.l.Lock(th, o)
		if notified, err := f.l.Wait(th, o, time.Microsecond); err != nil {
			t.Fatal(err)
		} else if notified {
			t.Fatal("timeout wait reported notified")
		}
		if err := f.l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}

	s := f.l.Stats()
	if s.InflationsWait != rounds {
		t.Fatalf("InflationsWait = %d, want %d", s.InflationsWait, rounds)
	}
	if s.Deflations != rounds {
		t.Fatalf("Deflations = %d, want %d", s.Deflations, rounds)
	}
	if s.MonitorFrees != rounds {
		t.Fatalf("MonitorFrees = %d, want %d", s.MonitorFrees, rounds)
	}
	if s.FatLocks != rounds {
		t.Fatalf("FatLocks (cumulative allocations) = %d, want %d", s.FatLocks, rounds)
	}
	if s.MonitorRecycles != rounds-1 {
		t.Fatalf("MonitorRecycles = %d, want %d", s.MonitorRecycles, rounds-1)
	}
	if s.TableSpan != 1 {
		t.Fatalf("TableSpan = %d after sequential churn, want 1", s.TableSpan)
	}
	if s.LiveMonitors != 0 {
		t.Fatalf("LiveMonitors = %d, want 0", s.LiveMonitors)
	}
}

// TestChurnBoundMillions is the memory-bound certificate of the compact
// extension: it inflates and abandons millions of objects (10M+ in a
// full-strength run) through the cheapest deterministic inflation path —
// count overflow with a 1-bit count field — and asserts the monitor
// table's footprint stays O(1) for a single thread instead of
// O(ever-inflated). Every cycle allocates a fresh object, inflates it,
// deflates it on final unlock and recycles the index.
func TestChurnBoundMillions(t *testing.T) {
	t.Parallel()
	cycles := 10_000_000
	if testing.Short() {
		cycles = 100_000
	} else if raceEnabled {
		// The race detector multiplies the per-cycle cost ~20x; the
		// bound property is scale-independent.
		cycles = 200_000
	}

	f := newFixture(t, Options{RecycleMonitors: true, CountBits: 1})
	th := f.thread(t)
	for i := 0; i < cycles; i++ {
		o := f.heap.New("X")
		// Three nested locks overflow the 1-bit count on the third
		// acquisition and inflate carrying depth 3.
		f.l.Lock(th, o)
		f.l.Lock(th, o)
		f.l.Lock(th, o)
		for j := 0; j < 3; j++ {
			if err := f.l.Unlock(th, o); err != nil {
				t.Fatalf("cycle %d unlock %d: %v", i, j, err)
			}
		}
	}

	s := f.l.Stats()
	if got, want := s.InflationsOverflow, uint64(cycles); got != want {
		t.Fatalf("InflationsOverflow = %d, want %d", got, want)
	}
	if got, want := s.Deflations, uint64(cycles); got != want {
		t.Fatalf("Deflations = %d, want %d", got, want)
	}
	if got, want := s.MonitorFrees, uint64(cycles); got != want {
		t.Fatalf("MonitorFrees = %d, want %d", got, want)
	}
	if s.LiveMonitors != 0 {
		t.Fatalf("LiveMonitors = %d after churn, want 0", s.LiveMonitors)
	}
	// The whole point: footprint is O(concurrently-held), not
	// O(ever-inflated). One thread holds at most one monitor here.
	if s.TableSpan != 1 {
		t.Fatalf("TableSpan = %d after %d inflate/deflate cycles, want 1", s.TableSpan, cycles)
	}
}

// TestRecycleConcurrentChurn races inflation, deflation, index recycling
// and the pinned stale-index lookup against each other: worker pairs
// ping-pong over shared objects with in-section yields so locks inflate,
// deflate on final release, and are re-entered by threads still holding
// the old header value. Run under -race this exercises the pin
// protocol's ordering end to end.
func TestRecycleConcurrentChurn(t *testing.T) {
	t.Parallel()
	pairs := 4
	rounds := 4000
	if testing.Short() || raceEnabled {
		rounds = 600
	}

	f := newFixture(t, Options{RecycleMonitors: true})
	done := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		o := f.heap.New("X")
		for w := 0; w < 2; w++ {
			th, err := f.reg.Attach(fmt.Sprintf("churn-%d-%d", p, w))
			if err != nil {
				t.Fatal(err)
			}
			w := w
			go func() {
				var err error
				for r := 0; r < rounds && err == nil; r++ {
					f.l.Lock(th, o)
					if (r+w)%3 == 0 {
						runtime.Gosched()
					}
					err = f.l.Unlock(th, o)
				}
				done <- err
			}()
		}
	}
	for i := 0; i < 2*pairs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	s := f.l.Stats()
	if s.Inflations() == 0 {
		t.Fatal("ping-pong churn produced no inflations; the test exercised nothing")
	}
	// Every inflation's final release finds empty queues eventually, so
	// all monitors deflate and the table drains completely.
	if s.LiveMonitors != 0 {
		t.Fatalf("LiveMonitors = %d after all workers joined, want 0", s.LiveMonitors)
	}
	if s.MonitorFrees != s.Deflations {
		t.Fatalf("MonitorFrees = %d, Deflations = %d; every deflation must free", s.MonitorFrees, s.Deflations)
	}
	// Footprint bound: at most one monitor per pair exists at once, plus
	// slack for indices parked in the grace-period limbo while pins from
	// other pairs were live.
	if max := 4 * pairs; s.TableSpan > max {
		t.Fatalf("TableSpan = %d, want <= %d (bounded by concurrent holders)", s.TableSpan, max)
	}
}
