package thinlock

import (
	"sync"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	rt := New()
	main, err := rt.AttachThread("main")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.DetachThread(main)
	o := rt.NewObject("Account")

	ran := false
	rt.Synchronized(main, o, func() { ran = true })
	if !ran {
		t.Fatal("synchronized block never ran")
	}
	if rt.Inflated(o) {
		t.Error("uncontended object inflated")
	}
	if rt.Name() != "ThinLock" {
		t.Errorf("Name = %q", rt.Name())
	}
	if rt.Implementation() != ThinLock {
		t.Errorf("Implementation = %v", rt.Implementation())
	}
}

func TestAllImplementationsMutualExclusion(t *testing.T) {
	impls := []struct {
		name string
		opts []Option
	}{
		{"ThinLock", nil},
		{"JDK111", []Option{WithImplementation(JDK111)}},
		{"IBM112", []Option{WithImplementation(IBM112)}},
		{"ThinLock+deflation", []Option{WithDeflation()}},
	}
	for _, tc := range impls {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rt := New(tc.opts...)
			o := rt.NewObject("X")
			const goroutines, iters = 6, 300
			var counter int
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				done, err := rt.Go("w", func(th *Thread) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						rt.Synchronized(th, o, func() { counter++ })
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				_ = done
			}
			wg.Wait()
			if counter != goroutines*iters {
				t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
			}
		})
	}
}

func TestImplementationNames(t *testing.T) {
	if New(WithImplementation(JDK111)).Name() != "JDK111" {
		t.Error("JDK111 name")
	}
	if New(WithImplementation(IBM112)).Name() != "IBM112" {
		t.Error("IBM112 name")
	}
	if New(WithVariant(VariantNOP)).Name() != "ThinLock/NOP" {
		t.Error("variant name")
	}
	if ThinLock.String() != "ThinLock" || JDK111.String() != "JDK111" ||
		IBM112.String() != "IBM112" || Implementation(9).String() != "unknown-implementation" {
		t.Error("Implementation.String")
	}
}

func TestWaitNotifyAcrossRuntimeAPI(t *testing.T) {
	rt := New()
	o := rt.NewObject("Cond")
	ready := make(chan struct{})
	woke := make(chan bool, 1)
	done, err := rt.Go("waiter", func(th *Thread) {
		rt.Lock(th, o)
		close(ready)
		n, err := rt.Wait(th, o, 0)
		if err != nil {
			t.Error(err)
		}
		woke <- n
		if err := rt.Unlock(th, o); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	notifier, err := rt.AttachThread("notifier")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.Lock(notifier, o)
		if err := rt.Notify(notifier, o); err != nil {
			t.Fatal(err)
		}
		if err := rt.Unlock(notifier, o); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-woke:
			if !n {
				t.Fatal("woke by timeout")
			}
			<-done
			return
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("never notified")
			}
		}
	}
}

func TestWaitTimeout(t *testing.T) {
	rt := New()
	th, _ := rt.AttachThread("t")
	o := rt.NewObject("X")
	rt.Lock(th, o)
	n, err := rt.Wait(th, o, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n {
		t.Fatal("notified on timeout")
	}
	if err := rt.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptWakesWait(t *testing.T) {
	rt := New()
	o := rt.NewObject("X")
	errCh := make(chan error, 1)
	var waiter *Thread
	started := make(chan struct{})
	done, err := rt.Go("w", func(th *Thread) {
		waiter = th
		rt.Lock(th, o)
		close(started)
		_, err := rt.Wait(th, o, 0)
		errCh <- err
		_ = rt.Unlock(th, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	time.Sleep(20 * time.Millisecond)
	waiter.Interrupt()
	select {
	case err := <-errCh:
		if err != ErrInterrupted {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interrupt lost")
	}
	<-done
}

func TestIllegalMonitorState(t *testing.T) {
	rt := New()
	th, _ := rt.AttachThread("t")
	o := rt.NewObject("X")
	if err := rt.Unlock(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("err = %v", err)
	}
	if _, err := rt.Wait(th, o, 0); err != ErrIllegalMonitorState {
		t.Fatalf("wait err = %v", err)
	}
	if err := rt.Notify(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("notify err = %v", err)
	}
	if err := rt.NotifyAll(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("notifyAll err = %v", err)
	}
}

func TestStatsIntegration(t *testing.T) {
	rt := New(WithStats())
	th, _ := rt.AttachThread("t")
	o := rt.NewObject("X")
	rt.Synchronized(th, o, func() {})
	rt.Synchronized(th, o, func() {})
	rep, err := rt.LockStats()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSyncs != 2 {
		t.Errorf("TotalSyncs = %d, want 2", rep.TotalSyncs)
	}
	if rep.SyncedObjects != 1 {
		t.Errorf("SyncedObjects = %d, want 1", rep.SyncedObjects)
	}
	if rt.ObjectsAllocated() != 1 {
		t.Errorf("ObjectsAllocated = %d, want 1", rt.ObjectsAllocated())
	}
}

func TestStatsUnavailableWithoutOption(t *testing.T) {
	rt := New()
	if _, err := rt.LockStats(); err == nil {
		t.Fatal("LockStats without WithStats must error")
	}
}

func TestThinLockStatsInflation(t *testing.T) {
	rt := New()
	o := rt.NewObject("X")
	a, _ := rt.AttachThread("a")

	rt.Lock(a, o)
	var wg sync.WaitGroup
	wg.Add(1)
	if _, err := rt.Go("b", func(th *Thread) {
		defer wg.Done()
		rt.Synchronized(th, o, func() {})
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.ThinLockStats().SpinRounds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("contender never spun")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !rt.Inflated(o) {
		t.Fatal("contention did not inflate")
	}
	if rt.ThinLockStats().Inflations() != 1 {
		t.Errorf("Inflations = %d, want 1", rt.ThinLockStats().Inflations())
	}
}

func TestBaselineStatsAreZero(t *testing.T) {
	rt := New(WithImplementation(JDK111))
	th, _ := rt.AttachThread("t")
	o := rt.NewObject("X")
	rt.Synchronized(th, o, func() {})
	if rt.Inflated(o) {
		t.Error("baseline reports inflation")
	}
	if s := rt.ThinLockStats(); s.Inflations() != 0 || s.FatLocks != 0 {
		t.Error("baseline thin stats nonzero")
	}
}

func TestConfigKnobs(t *testing.T) {
	rt := New(WithImplementation(JDK111), WithMonitorCacheCapacity(4))
	th, _ := rt.AttachThread("t")
	for i := 0; i < 20; i++ {
		o := rt.NewObject("X")
		rt.Synchronized(th, o, func() {})
	}
	rt2 := New(WithImplementation(IBM112), WithHotLockSlots(2))
	th2, _ := rt2.AttachThread("t")
	for i := 0; i < 20; i++ {
		o := rt2.NewObject("X")
		for j := 0; j < 10; j++ {
			rt2.Synchronized(th2, o, func() {})
		}
	}
}

func TestCountBitsOption(t *testing.T) {
	rt := New(WithCountBits(2))
	th, _ := rt.AttachThread("t")
	o := rt.NewObject("X")
	for i := 0; i < 4; i++ {
		rt.Lock(th, o)
	}
	if rt.Inflated(o) {
		t.Fatal("inflated within the 2-bit nesting budget")
	}
	rt.Lock(th, o) // 5th: overflow
	if !rt.Inflated(o) {
		t.Fatal("5th nested lock did not inflate with CountBits=2")
	}
	if rt.ThinLockStats().InflationsOverflow != 1 {
		t.Error("overflow inflation not counted")
	}
	for i := 0; i < 5; i++ {
		if err := rt.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTraceOption(t *testing.T) {
	rt := New(WithTrace(0))
	th, _ := rt.AttachThread("t")
	a := rt.NewObject("A")
	b := rt.NewObject("B")

	// Create a lock-order inversion sequentially.
	rt.Lock(th, a)
	rt.Lock(th, b)
	_ = rt.Unlock(th, b)
	_ = rt.Unlock(th, a)
	rt.Lock(th, b)
	rt.Lock(th, a)
	_ = rt.Unlock(th, a)
	_ = rt.Unlock(th, b)

	evs, err := rt.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 8 {
		t.Fatalf("events = %d, want 8", len(evs))
	}
	rep, err := rt.TraceReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1:\n%s", len(rep.Cycles), rep)
	}
	if !rep.HasHazards() {
		t.Fatal("inversion not reported")
	}
}

func TestTraceUnavailableWithoutOption(t *testing.T) {
	rt := New()
	if _, err := rt.TraceEvents(); err == nil {
		t.Fatal("TraceEvents without WithTrace must error")
	}
	if _, err := rt.TraceReport(); err == nil {
		t.Fatal("TraceReport without WithTrace must error")
	}
}

func TestThreadAndObjectAccessors(t *testing.T) {
	rt := New()
	th, _ := rt.AttachThread("worker")
	o := rt.NewObject("Vector")
	if th.Name() != "worker" || th.Index() == 0 {
		t.Error("thread accessors")
	}
	if o.Class() != "Vector" || o.ID() == 0 {
		t.Error("object accessors")
	}
	if o.String() != "Vector#1" {
		t.Errorf("object String = %q", o.String())
	}
	if th.String() == "" {
		t.Error("thread String empty")
	}
	rt.Lock(th, o)
	if o.Header() == 0 {
		t.Error("header invisible")
	}
	if err := rt.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if rt.AttachedThreads() != 1 {
		t.Errorf("AttachedThreads = %d, want 1", rt.AttachedThreads())
	}
	rt.DetachThread(th)
	if rt.AttachedThreads() != 0 {
		t.Errorf("AttachedThreads = %d, want 0", rt.AttachedThreads())
	}
}
