package lockdep_test

// Overhead contract for the lock-order watchdog (see the lockdep
// package comment): with lockdep disabled, every hook site in the lock
// implementations is one atomic pointer load, a compare and a
// not-taken branch, and no lock path may allocate. Enabled, the steady
// state (known sites, known objects, known order edges) is
// allocation-free too; only the first observation of a site, node or
// edge allocates its record.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockdep"
	"thinlock/internal/lockprof"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

type lockFixture struct {
	l    *core.ThinLocks
	heap *object.Heap
	th   *threading.Thread
	o    *object.Object
	o2   *object.Object
}

func newLockFixture(t testing.TB) *lockFixture {
	t.Helper()
	f := &lockFixture{l: core.NewDefault(), heap: object.NewHeap()}
	reg := threading.NewRegistry()
	th, err := reg.Attach("bench")
	if err != nil {
		t.Fatal(err)
	}
	f.th = th
	f.o = f.heap.New("Object")
	f.o2 = f.heap.New("Object")
	return f
}

// Not parallel: owns the global lockdep registration.
func TestDisabledLockdepDoesNotAllocate(t *testing.T) {
	lockdep.Disable()
	lockprof.Disable()
	telemetry.Disable()
	f := newLockFixture(t)
	if allocs := testing.AllocsPerRun(100, func() {
		f.l.Lock(f.th, f.o)
		if err := f.l.Unlock(f.th, f.o); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("disabled fast path allocates %.1f objects per op", allocs)
	}
	// Nested acquisition of two objects drives the slow path through
	// every lockdep hook site (Acquired, Released, the Blocked sites are
	// branch-gated) in its disabled state.
	if allocs := testing.AllocsPerRun(100, func() {
		f.l.Lock(f.th, f.o)
		f.l.Lock(f.th, f.o2)
		f.l.Unlock(f.th, f.o2)
		f.l.Unlock(f.th, f.o)
	}); allocs != 0 {
		t.Errorf("disabled nested path allocates %.1f objects per op", allocs)
	}
}

// Not parallel: owns the global lockdep registration.
func TestEnabledSteadyStateDoesNotAllocate(t *testing.T) {
	lockprof.Disable()
	telemetry.Disable()
	d := lockdep.Enable(lockdep.New())
	defer lockdep.Disable()
	f := newLockFixture(t)
	// First pass interns the site, the graph nodes and the order edge.
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o2)
	f.l.Unlock(f.th, f.o2)
	f.l.Unlock(f.th, f.o)
	if allocs := testing.AllocsPerRun(100, func() {
		f.l.Lock(f.th, f.o)
		f.l.Lock(f.th, f.o2)
		f.l.Unlock(f.th, f.o2)
		f.l.Unlock(f.th, f.o)
	}); allocs != 0 {
		t.Errorf("enabled steady-state path allocates %.1f objects per op", allocs)
	}
	st := d.Stats()
	if st.Edges == 0 || st.Events == 0 {
		t.Fatalf("lockdep recorded nothing (test measured the wrong path): %+v", st)
	}
}

// cycleSamples times reps uncontended lock/unlock cycles samples times
// and returns the times in the order they were taken.
func cycleSamples(f *lockFixture, samples, reps int) []time.Duration {
	ds := make([]time.Duration, 0, samples)
	for s := 0; s < samples; s++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f.l.Lock(f.th, f.o)
			f.l.Unlock(f.th, f.o)
		}
		ds = append(ds, time.Since(start))
	}
	return ds
}

// median returns the median of ds, robust against scheduler noise,
// without reordering ds.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestDisabledLockdepOverheadIsBounded: with lockdep compiled in but
// disabled, the uncontended cycle pays two atomic loads (Lock and
// Unlock hooks). Enabling and disabling again must return the cycle to
// its baseline (no residue), and the *enabled* cycle — which captures a
// call site on every first acquisition by design, see the package
// comment on why lockdep cannot sample — gets only a catastrophic-
// regression rail: it catches cycle detection or wait-for scanning
// leaking onto the steady-state path, not microsecond drift. The
// precise numbers are BenchmarkUncontendedLockUnlockLockdep. Not
// parallel: owns the global registration and times itself.
func TestDisabledLockdepOverheadIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := newLockFixture(t)
	const samples, reps = 9, 20000
	lockdep.Disable()
	lockprof.Disable()
	telemetry.Disable()
	cycleSamples(f, 3, reps) // warm up
	offs := cycleSamples(f, samples, reps)
	lockdep.Enable(lockdep.New())
	cycleSamples(f, 3, reps) // intern the site before timing
	ons := cycleSamples(f, samples, reps)
	lockdep.Disable()
	afters := cycleSamples(f, samples, reps)
	base, on, after := median(offs), median(ons), median(afters)
	// Every sample, in the order taken, so a failure shows whether one
	// stall or a steady slowdown moved the median.
	samplesMsg := fmt.Sprintf("\n  off:   %v\n  on:    %v\n  after: %v", offs, ons, afters)
	if base > 0 && float64(after) > 2*float64(base) {
		t.Errorf("disabled lockdep cycle regressed after an enable/disable round: %.2fx (before=%v after=%v)%s",
			float64(after)/float64(base), base, after, samplesMsg)
	}
	if base > 0 && float64(on) > 200*float64(base) {
		t.Errorf("enabled lockdep slowed uncontended cycle %.0fx (off=%v on=%v); is detection running on the hot path?%s",
			float64(on)/float64(base), base, on, samplesMsg)
	}
}

// BenchmarkUncontendedLockUnlockLockdep measures the Disabled/Enabled
// cost of the hooks on the uncontended cycle:
//
//	go test -bench UncontendedLockUnlockLockdep -benchmem ./internal/lockdep/
func BenchmarkUncontendedLockUnlockLockdep(b *testing.B) {
	run := func(b *testing.B) {
		f := newLockFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.l.Lock(f.th, f.o)
			f.l.Unlock(f.th, f.o)
		}
	}
	b.Run("Disabled", func(b *testing.B) {
		lockdep.Disable()
		run(b)
	})
	b.Run("Enabled", func(b *testing.B) {
		lockdep.Enable(lockdep.New())
		defer lockdep.Disable()
		run(b)
	})
}

// BenchmarkNestedPairLockdep measures the two-object nesting cycle,
// where the enabled path also folds (steady-state: looks up) an order
// edge per acquisition.
func BenchmarkNestedPairLockdep(b *testing.B) {
	run := func(b *testing.B) {
		f := newLockFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.l.Lock(f.th, f.o)
			f.l.Lock(f.th, f.o2)
			f.l.Unlock(f.th, f.o2)
			f.l.Unlock(f.th, f.o)
		}
	}
	b.Run("Disabled", func(b *testing.B) {
		lockdep.Disable()
		run(b)
	})
	b.Run("Enabled", func(b *testing.B) {
		lockdep.Enable(lockdep.New())
		defer lockdep.Disable()
		run(b)
	})
}
