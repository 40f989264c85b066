package biased

import (
	"testing"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// TestFastPathZeroAllocWhenProfilingDisabled: with telemetry and
// lockprof inactive, the owner's biased reacquire/release, the
// revocation paths and the thin path for objects the thread does not
// reserve must not allocate — the hooks have to cost nothing
// when disabled. Deliberately not parallel: AllocsPerRun reads global
// allocation counters.
func TestFastPathZeroAllocWhenProfilingDisabled(t *testing.T) {
	if telemetry.Enabled() {
		t.Fatal("telemetry unexpectedly active")
	}
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o) // install (allocates the class entry, once)
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		w.l.Lock(a, o)
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("biased reacquire/release allocates %.2f objects/op with profiling disabled", avg)
	}

	// The revocation slow path (minus the one-time monitor allocations)
	// must be allocation-free too: revoke a fresh unheld reservation per
	// run.
	b := w.thread(t, "b")
	objs := make([]*object.Object, 100)
	for i := range objs {
		objs[i] = w.heap.New("revobj")
		w.l.Lock(a, objs[i])
		if err := w.l.Unlock(a, objs[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if avg := testing.AllocsPerRun(99, func() {
		w.l.Lock(b, objs[i])
		if err := w.l.Unlock(b, objs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg > 0 {
		t.Errorf("revocation allocates %.2f objects/op with profiling disabled", avg)
	}
	if s := w.l.Stats(); s.Revocations() == 0 {
		t.Error("overhead run exercised no revocations — the measurement is vacuous")
	}

	// A thread with every bias slot claimed locks fresh objects with
	// the thin CAS, which needs no class lookup and no allocation.
	claimAllBiasSlots(t, w.l, a, w.heap)
	fresh := make([]*object.Object, 101)
	for i := range fresh {
		fresh[i] = w.heap.New("fresh")
	}
	i = 0
	if avg := testing.AllocsPerRun(100, func() {
		w.l.Lock(a, fresh[i])
		if err := w.l.Unlock(a, fresh[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Errorf("fresh-object lock/unlock with all bias slots claimed allocates %.2f objects/op with profiling disabled", avg)
	}
}

// TestBiasedReacquireBeatsThinCAS is the acceptance microbenchmark: the
// reservation's whole justification is that a same-owner reacquire (one
// plain depth store + one validating load) undercuts the thin lock's
// compare-and-swap fast path. Medians over several rounds; a generous
// margin and retries keep scheduler noise from flaking CI.
func TestBiasedReacquireBeatsThinCAS(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped under -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the atomics being compared")
	}
	const (
		iters  = 200_000
		rounds = 7
	)
	measure := func(l lockapi.Locker, th *threading.Thread, o *object.Object) time.Duration {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				l.Lock(th, o)
				if err := l.Unlock(th, o); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	for attempt := 1; ; attempt++ {
		bw := newWorld(t, Options{})
		bth := bw.thread(t, "b")
		bo := bw.heap.New("bench")
		bw.l.Lock(bth, bo) // reserve
		if err := bw.l.Unlock(bth, bo); err != nil {
			t.Fatal(err)
		}
		biasedTime := measure(bw.l, bth, bo)

		tl := core.New(core.Options{CPU: arch.PowerPCUP})
		treg := threading.NewRegistry()
		tth, err := treg.Attach("t")
		if err != nil {
			t.Fatal(err)
		}
		to := object.NewHeap().New("bench")
		thinTime := measure(tl, tth, to)

		if biasedTime < thinTime {
			t.Logf("biased reacquire %v vs thin CAS %v over %d pairs (%.2fx)",
				biasedTime, thinTime, iters, float64(thinTime)/float64(biasedTime))
			return
		}
		if attempt == 3 {
			t.Fatalf("biased reacquire (%v) did not beat thin CAS (%v) in %d attempts",
				biasedTime, thinTime, attempt)
		}
	}
}
