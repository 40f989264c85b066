package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Tests for compact monitors (Options.Compact): contention, waits and
// notifies park on the threading lot, so the header only ever holds thin
// words and no monitor is allocated. Several keep the names they had
// when this configuration deflated and recycled monitor indices; each
// checks what the lot protocol owes in the same scenario.

// contend makes b contend for o while a holds it, until b has spun, then
// releases a's hold and waits for b's lock/unlock to finish.
func contend(t *testing.T, f *fixture, a, b *threading.Thread, o *object.Object) {
	t.Helper()
	f.l.Lock(a, o)
	base := f.l.Stats().SpinRounds
	done := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
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

// TestDeflationRestoresThinLock: after contention the header is thin and
// unlocked again, and no monitor was ever allocated for it.
func TestDeflationRestoresThinLock(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Compact: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	misc := o.Misc()

	contend(t, f, a, b, o)
	if o.Header() != misc {
		t.Fatalf("header = %#x, want pure misc %#x", o.Header(), misc)
	}
	if s := f.l.Stats(); s.Inflations() != 0 || s.FatLocks != 0 || s.Deflations != 0 {
		t.Fatalf("compact contention inflated: %+v", s)
	}
	if f.l.Monitor(o) != nil || threading.Parked(o) != 0 {
		t.Fatal("contention left a monitor or a parked node behind")
	}
}

// TestDeflationSkippedWhileNested: a lock held nested under contention
// is not released to the contender before its final unlock.
func TestDeflationSkippedWhileNested(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Compact: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	f.l.Lock(a, o)
	f.l.Lock(a, o)
	var held atomic.Bool // a still owns o
	held.Store(true)
	done := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		if held.Load() {
			t.Error("contender acquired while the holder was still nested")
		}
		if err := f.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitForStat(t, func() bool { return f.l.Stats().QueuedParks > 0 })
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	held.Store(false)
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestDeflationWithWaitersIsSkipped: a waiter stays filed on the lot
// while other threads lock and release the object, and the later notify
// finds it.
func TestDeflationWithWaitersIsSkipped(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Compact: true})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	woke := make(chan bool, 1)
	go func() {
		f.l.Lock(a, o)
		notified, err := f.l.Wait(a, o, 0)
		if err != nil {
			t.Error(err)
		}
		if err := f.l.Unlock(a, o); err != nil {
			t.Error(err)
		}
		woke <- notified
	}()
	waitForStat(t, func() bool { return threading.Parked(o) == 1 && IsUnlocked(o.Header()) })

	for i := 0; i < 10; i++ {
		f.l.Lock(b, o)
		if err := f.l.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
	}
	if threading.Parked(o) != 1 {
		t.Fatal("a release woke the waiter")
	}
	f.l.Lock(b, o)
	if err := f.l.Notify(b, o); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	select {
	case <-woke:
		t.Fatal("the waiter returned while the notifier still held the lock")
	default:
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	select {
	case notified := <-woke:
		if !notified {
			t.Error("notified waiter reported a timeout")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter lost")
	}
	if threading.Parked(o) != 0 || f.l.Stats().FatLocks != 0 {
		t.Fatal("wait/notify left a parked node or allocated a monitor")
	}
}

// TestDeflationStress hammers one object with contention; mutual
// exclusion must hold, nothing inflates, and nothing stays parked.
func TestDeflationStress(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Compact: true})
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
		t.Fatalf("counter = %d, want %d (lost update)", counter, goroutines*iters)
	}
	if s := f.l.Stats(); s.FatLocks != 0 || s.Inflations() != 0 {
		t.Fatalf("compact stress inflated: %+v", s)
	}
	if !IsUnlocked(o.Header()) || threading.Parked(o) != 0 {
		t.Fatalf("header %#x, %d parked after the run", o.Header(), threading.Parked(o))
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
			t.Fatal("lock deflated")
		}
	}
	if f.l.Stats().Deflations != 0 {
		t.Error("Deflations counted")
	}
}

// TestChurnBoundMillions is the memory-bound certificate of compact
// monitors: it nests millions of fresh objects past a 1-bit count field,
// the path that inflates under the paper's protocol, and each must
// finish thin with no monitor and no side count left.
func TestChurnBoundMillions(t *testing.T) {
	t.Parallel()
	cycles := 10_000_000
	if testing.Short() {
		cycles = 100_000
	} else if raceEnabled {
		cycles = 200_000
	}

	f := newFixture(t, Options{Compact: true, CountBits: 1})
	th := f.thread(t)
	for i := 0; i < cycles; i++ {
		o := f.heap.New("X")
		// Three nested locks pass the 1-bit count on the third
		// acquisition, which goes to the side count.
		f.l.Lock(th, o)
		f.l.Lock(th, o)
		f.l.Lock(th, o)
		for j := 0; j < 3; j++ {
			if err := f.l.Unlock(th, o); err != nil {
				t.Fatalf("cycle %d unlock %d: %v", i, j, err)
			}
		}
		if !IsUnlocked(o.Header()) {
			t.Fatalf("cycle %d: header %#x after three unlocks", i, o.Header())
		}
	}
	if s := f.l.Stats(); s.Inflations() != 0 || s.FatLocks != 0 || s.TableSpan != 0 {
		t.Fatalf("churn allocated monitors: %+v", s)
	}
	if len(f.l.deep.m) != 0 {
		t.Fatalf("%d side counts left after churn", len(f.l.deep.m))
	}
}

// TestCompactWaitRestoresDepth300: a wait at depth 300, past the thin
// field's 256 levels, re-acquires exactly 300 levels.
func TestCompactWaitRestoresDepth300(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Compact: true})
	th := f.thread(t)
	o := f.heap.New("X")
	const depth = 300
	for i := 0; i < depth; i++ {
		f.l.Lock(th, o)
	}
	if notified, err := f.l.Wait(th, o, time.Millisecond); notified || err != nil {
		t.Fatalf("Wait = (%v, %v), want a timeout", notified, err)
	}
	for i := 0; i < depth; i++ {
		if err := f.l.Unlock(th, o); err != nil {
			t.Fatalf("unlock %d of %d: %v", i+1, depth, err)
		}
	}
	if err := f.l.Unlock(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("unlock %d = %v, want ErrIllegalMonitorState", depth+1, err)
	}
	if f.l.Stats().FatLocks != 0 || len(f.l.deep.m) != 0 {
		t.Fatal("deep wait left a monitor or a side count")
	}
}

// TestCompactTimedWaitAndInterruptRemoveTheirNode: a wait that times out
// or is interrupted removes its own node from the lot and reports it.
func TestCompactTimedWaitAndInterruptRemoveTheirNode(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Compact: true})
	th := f.thread(t)
	o := f.heap.New("X")
	f.l.Lock(th, o)
	if notified, err := f.l.Wait(th, o, time.Millisecond); notified || err != nil {
		t.Fatalf("timed Wait = (%v, %v), want a timeout", notified, err)
	}
	if threading.Parked(o) != 0 {
		t.Fatal("timed-out waiter left its node filed")
	}

	go func() {
		for threading.Parked(o) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		th.Interrupt()
	}()
	if notified, err := f.l.Wait(th, o, 0); notified || err != threading.ErrInterrupted {
		t.Fatalf("interrupted Wait = (%v, %v), want ErrInterrupted", notified, err)
	}
	if threading.Parked(o) != 0 || th.IsInterrupted() {
		t.Fatal("interrupted waiter left its node filed or its status set")
	}
	if err := f.l.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
}
