package core

import (
	"sync"
	"testing"
	"time"

	"thinlock/internal/arch"
)

// TestMPVariantContentionAndInflation exercises the multiprocessor code
// path (CAS + isync / sync + store) through a full contention episode:
// spin, acquire, inflate, fat handoff.
func TestMPVariantContentionAndInflation(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Variant: VariantMPSync})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	f.l.Lock(a, o)
	acquired := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		close(acquired)
	}()
	waitForStat(t, func() bool { return f.l.Stats().SpinRounds > 0 })
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("MP contender never acquired")
	}
	if !IsInflated(o.Header()) {
		t.Fatal("MP contention did not inflate")
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
}

// TestKernelCASContention drives contention through the simulated POWER
// kernel compare-and-swap service.
func TestKernelCASContention(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Variant: VariantKernelCAS})
	o := f.heap.New("X")
	const goroutines, iters = 4, 200
	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := f.thread(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f.l.Lock(th, o)
				counter++
				if err := f.l.Unlock(th, o); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestStandardMPQueuedDeflationComposition stacks every orthogonal
// feature — MP machine model, queued inflation, deflation, narrow count
// field — and hammers one object; correctness must be preserved by the
// composition, not just each feature alone.
func TestStandardMPQueuedDeflationComposition(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{
		CPU:             arch.PowerPCMP,
		QueuedInflation: true,
		RecycleMonitors: true,
		CountBits:       3,
	})
	o := f.heap.New("X")
	const goroutines, iters = 6, 250
	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := f.thread(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f.l.Lock(th, o)
				f.l.Lock(th, o) // nested within the 3-bit budget
				counter++
				if err := f.l.Unlock(th, o); err != nil {
					t.Error(err)
				}
				if err := f.l.Unlock(th, o); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}
