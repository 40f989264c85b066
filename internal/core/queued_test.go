package core

import (
	"sync"
	"testing"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

func TestQueuedContentionParksAndInflates(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{QueuedInflation: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	f.l.Lock(a, o)
	acquired := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		close(acquired)
	}()

	// B must park, not spin.
	waitForStat(t, func() bool { return f.l.Stats().QueuedParks > 0 })
	if f.l.Stats().SpinRounds != 0 {
		t.Error("queued mode still spun")
	}
	if o.Flags()&FlagFLC == 0 {
		t.Error("flc bit not set while contender parked")
	}
	select {
	case <-acquired:
		t.Fatal("B acquired while A held the lock")
	default:
	}

	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("queued contender never woken")
	}
	if !IsInflated(o.Header()) {
		t.Fatal("queued contention did not inflate")
	}
	s := f.l.Stats()
	if s.FLCWakeups == 0 {
		t.Error("owner never performed an flc wakeup")
	}
	if s.InflationsContention != 1 {
		t.Errorf("InflationsContention = %d, want 1", s.InflationsContention)
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedMutualExclusionStress(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{QueuedInflation: true})
	o := f.heap.New("X")
	const goroutines, iters = 8, 400
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

func TestQueuedManyObjectsStress(t *testing.T) {
	t.Parallel()
	// Contention across several objects exercises queue creation and
	// cleanup concurrently.
	f := newFixture(t, Options{QueuedInflation: true})
	const objects, goroutines, iters = 4, 6, 300
	objs := make([]*object.Object, objects)
	counters := make([]int64, objects)
	for i := range objs {
		objs[i] = f.heap.New("X")
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := f.thread(t)
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (seed + i) % objects
				f.l.Lock(th, objs[k])
				counters[k]++
				if err := f.l.Unlock(th, objs[k]); err != nil {
					t.Error(err)
				}
			}
		}(g)
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

func TestQueuedOverflowInflationWakesParkedContender(t *testing.T) {
	t.Parallel()
	// A parks on B's thin lock; B inflates via count overflow rather
	// than unlocking. A must still be woken (by the inflate hook) and
	// enter the fat lock.
	f := newFixture(t, Options{QueuedInflation: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	f.l.Lock(b, o) // B holds once
	acquired := make(chan struct{})
	go func() {
		f.l.Lock(a, o)
		close(acquired)
	}()
	waitForStat(t, func() bool { return f.l.Stats().QueuedParks > 0 })

	// B drives its own lock to overflow: inflates while holding.
	for i := 0; i < 256; i++ {
		f.l.Lock(b, o)
	}
	if !IsInflated(o.Header()) {
		t.Fatal("overflow did not inflate")
	}
	// A should now be queued on the fat lock, not parked on flc.
	select {
	case <-acquired:
		t.Fatal("A acquired while B holds 257 locks")
	default:
	}
	for i := 0; i < 257; i++ {
		if err := f.l.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("contender parked before overflow inflation was never woken")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedFlagClearedAfterWake(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{QueuedInflation: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	f.l.Lock(a, o)
	done := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		if err := f.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitForStat(t, func() bool { return f.l.Stats().QueuedParks > 0 })
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	<-done
	if o.Flags()&FlagFLC != 0 {
		t.Error("flc bit left set after contention resolved")
	}
	if n := threading.UnparkAll(o); n != 0 {
		t.Errorf("%d contenders left parked on the object", n)
	}
}

func TestQueuedNoOverheadWithoutContention(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{QueuedInflation: true})
	th := f.thread(t)
	o := f.heap.New("X")
	for i := 0; i < 100; i++ {
		f.l.Lock(th, o)
		if err := f.l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	s := f.l.Stats()
	if s.QueuedParks != 0 || s.FLCWakeups != 0 || s.FatLocks != 0 {
		t.Errorf("uncontended run touched queues: %+v", s)
	}
	if threading.UnparkAll(o) != 0 {
		t.Error("a thread parked without contention")
	}
}
