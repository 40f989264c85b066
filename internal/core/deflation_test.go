package core

import (
	"sync"
	"testing"
	"time"
)

func TestDeflationRestoresThinLock(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{RecycleMonitors: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	misc := o.Misc()

	inflateByContention(t, f, a, b, o)
	// The contender's unlock already had a chance to deflate (it held
	// the lock once with empty queues).
	if IsInflated(o.Header()) {
		t.Fatalf("header = %#x, want deflated", o.Header())
	}
	if o.Header() != misc {
		t.Fatalf("header = %#x, want pure misc %#x", o.Header(), misc)
	}
	if f.l.Stats().Deflations == 0 {
		t.Error("Deflations counter not incremented")
	}

	// The object must be fully usable as a thin lock again.
	f.l.Lock(a, o)
	if IsInflated(o.Header()) {
		t.Fatal("re-lock after deflation went fat")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

func TestDeflationSkippedWhileNested(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{RecycleMonitors: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	inflateByContention(t, f, a, b, o)
	// Re-inflate by contention again, then hold it nested: the inner
	// unlocks must not deflate.
	f.l.Lock(a, o)
	base := f.l.Stats().SpinRounds
	done := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		f.l.Lock(b, o)
		if err := f.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		// Nested unlock above must not deflate: still fat here.
		if !IsInflated(o.Header()) {
			t.Error("deflated while still owned nested")
		}
		if err := f.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitForStat(t, func() bool { return f.l.Stats().SpinRounds > base })
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestDeflationWithWaitersIsSkipped(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{RecycleMonitors: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	woke := make(chan struct{})
	go func() {
		f.l.Lock(a, o)
		if _, err := f.l.Wait(a, o, 0); err != nil {
			t.Error(err)
		}
		close(woke)
		if err := f.l.Unlock(a, o); err != nil {
			t.Error(err)
		}
	}()
	waitForStat(t, func() bool {
		return IsInflated(o.Header()) && f.l.Monitor(o).WaitSetLen() == 1
	})

	// B locks and unlocks: must NOT deflate because A is in the wait
	// set.
	f.l.Lock(b, o)
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	if !IsInflated(o.Header()) {
		t.Fatal("deflated with a waiter present")
	}
	f.l.Lock(b, o)
	if err := f.l.Notify(b, o); err != nil {
		t.Fatal(err)
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter lost by deflation logic")
	}
}

// TestDeflationStress hammers one object with contention so it cycles
// between thin and fat; mutual exclusion must hold throughout.
func TestDeflationStress(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{RecycleMonitors: true})
	o := f.heap.New("X")
	const goroutines, iters = 6, 500
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
		t.Fatalf("counter = %d, want %d (lost update through deflation)",
			counter, goroutines*iters)
	}
	if f.l.Stats().Deflations == 0 {
		t.Log("warning: stress run never deflated; timing-dependent")
	}
}

// TestNoDeflationByDefault locks in the paper's discipline: once fat,
// forever fat.
func TestNoDeflationByDefault(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	inflateByContention(t, f, a, b, o)
	for i := 0; i < 10; i++ {
		f.l.Lock(a, o)
		if err := f.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		if !IsInflated(o.Header()) {
			t.Fatal("lock deflated without the extension enabled")
		}
	}
	if f.l.Stats().Deflations != 0 {
		t.Error("Deflations counted without the extension")
	}
}
