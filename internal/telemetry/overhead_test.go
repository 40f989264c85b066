package telemetry_test

// Overhead contract for the telemetry layer (see package comment):
// disabled hooks must add no allocation to any lock path, enabled
// hooks must add no allocation to the slow path, and enabled telemetry
// must not materially slow the uncontended lock/unlock cycle (whose
// fast path carries no hooks at all).

import (
	"sort"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

type lockFixture struct {
	l    *core.ThinLocks
	heap *object.Heap
	th   *threading.Thread
	o    *object.Object
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
	return f
}

// Not parallel: owns the global telemetry registration.
func TestDisabledHooksDoNotAllocate(t *testing.T) {
	telemetry.Disable()
	f := newLockFixture(t)
	if allocs := testing.AllocsPerRun(100, func() {
		f.l.Lock(f.th, f.o)
		if err := f.l.Unlock(f.th, f.o); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("disabled lock/unlock allocates %.1f objects per op", allocs)
	}
	// Nested acquisition exercises the slow path and its (disabled)
	// hook sites.
	if allocs := testing.AllocsPerRun(100, func() {
		f.l.Lock(f.th, f.o)
		f.l.Lock(f.th, f.o)
		f.l.Unlock(f.th, f.o)
		f.l.Unlock(f.th, f.o)
	}); allocs != 0 {
		t.Errorf("disabled nested lock allocates %.1f objects per op", allocs)
	}
}

// Not parallel: owns the global telemetry registration.
func TestEnabledSlowPathDoesNotAllocate(t *testing.T) {
	telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	f := newLockFixture(t)
	if allocs := testing.AllocsPerRun(100, func() {
		f.l.Lock(f.th, f.o)
		f.l.Lock(f.th, f.o) // nested: slow path, records counter + latency
		f.l.Unlock(f.th, f.o)
		f.l.Unlock(f.th, f.o)
	}); allocs != 0 {
		t.Errorf("enabled slow path allocates %.1f objects per op", allocs)
	}
	if got := telemetry.Active().Counter(telemetry.CtrSlowPathEntries); got == 0 {
		t.Error("slow path hook did not record (test measured the wrong path)")
	}
}

// medianCycle times reps uncontended lock/unlock cycles and returns the
// median of samples runs, which is robust against scheduler noise.
func medianCycle(f *lockFixture, samples, reps int) time.Duration {
	ds := make([]time.Duration, 0, samples)
	for s := 0; s < samples; s++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f.l.Lock(f.th, f.o)
			f.l.Unlock(f.th, f.o)
		}
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestEnabledOverheadIsBounded checks the acceptance bound: enabled
// telemetry keeps the uncontended cycle within budget of the
// uninstrumented run. The fast path has no hook sites, so the true
// ratio is ~1.0; the assertion allows 2x so CI scheduling jitter cannot
// flake, while the strict 15% bound is reported by the benchmarks
// below. Not parallel: owns the global telemetry registration and
// times itself.
func TestEnabledOverheadIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := newLockFixture(t)
	const samples, reps = 9, 20000
	telemetry.Disable()
	medianCycle(f, 3, reps) // warm up
	off := medianCycle(f, samples, reps)
	telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	on := medianCycle(f, samples, reps)
	if off > 0 && float64(on) > 2*float64(off) {
		t.Errorf("enabled telemetry slowed uncontended cycle %.2fx (off=%v on=%v)",
			float64(on)/float64(off), off, on)
	}
}

// BenchmarkUncontendedLockUnlock/Disabled vs /Enabled is the precise
// overhead measurement behind the 15%% acceptance bound:
//
//	go test -bench UncontendedLockUnlock -benchmem ./internal/telemetry/
func BenchmarkUncontendedLockUnlock(b *testing.B) {
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
		telemetry.Disable()
		run(b)
	})
	b.Run("Enabled", func(b *testing.B) {
		telemetry.Enable(telemetry.New())
		defer telemetry.Disable()
		run(b)
	})
}

// BenchmarkNestedLockUnlock measures the slow path, where the hooks
// actually live.
func BenchmarkNestedLockUnlock(b *testing.B) {
	run := func(b *testing.B) {
		f := newLockFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.l.Lock(f.th, f.o)
			f.l.Lock(f.th, f.o)
			f.l.Unlock(f.th, f.o)
			f.l.Unlock(f.th, f.o)
		}
	}
	b.Run("Disabled", func(b *testing.B) {
		telemetry.Disable()
		run(b)
	})
	b.Run("Enabled", func(b *testing.B) {
		telemetry.Enable(telemetry.New())
		defer telemetry.Disable()
		run(b)
	})
}

// BenchmarkHookDispatch isolates one disabled vs enabled emit of a
// counted event.
func BenchmarkHookDispatch(b *testing.B) {
	b.Run("Disabled", func(b *testing.B) {
		telemetry.Disable()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lockevent.Emit(lockevent.SlowEnter, nil, nil)
		}
	})
	b.Run("Enabled", func(b *testing.B) {
		telemetry.Enable(telemetry.New())
		defer telemetry.Disable()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lockevent.Emit(lockevent.SlowEnter, nil, nil)
		}
	})
}
