package hotlocks

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

type fixture struct {
	h    *HotLocks
	heap *object.Heap
	reg  *threading.Registry
}

func newFixture(opts Options) *fixture {
	return &fixture{h: New(opts), heap: object.NewHeap(), reg: threading.NewRegistry()}
}

func (f *fixture) thread(t *testing.T) *threading.Thread {
	t.Helper()
	th, err := f.reg.Attach("t")
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestColdLockUnlock(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{})
	th := f.thread(t)
	o := f.heap.New("X")
	f.h.Lock(th, o)
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	s := f.h.Stats()
	if s.ColdOps == 0 {
		t.Error("no cold ops recorded")
	}
	if s.HotOps != 0 {
		t.Error("hot ops recorded before promotion")
	}
}

func TestPromotionAfterThreshold(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 4})
	th := f.thread(t)
	o := f.heap.New("X")
	for i := 0; i < 3; i++ {
		f.h.Lock(th, o)
		if err := f.h.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if f.h.Stats().Promotions != 0 {
		t.Fatal("promoted before threshold")
	}
	f.h.Lock(th, o) // 4th lock: promotes
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if f.h.Stats().Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", f.h.Stats().Promotions)
	}
	if o.Header()&hotBit == 0 {
		t.Fatal("header has no hot bit after promotion")
	}
	// Subsequent ops are hot.
	before := f.h.Stats().HotOps
	f.h.Lock(th, o)
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if f.h.Stats().HotOps != before+2 {
		t.Errorf("HotOps = %d, want %d", f.h.Stats().HotOps, before+2)
	}
	if f.h.HotCount() != 1 {
		t.Errorf("HotCount = %d, want 1", f.h.HotCount())
	}
}

func TestPromotionPreservesMiscBits(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 1})
	th := f.thread(t)
	o := f.heap.New("X")
	misc := o.Misc()
	f.h.Lock(th, o)
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if o.Header()&object.MiscMask != misc {
		t.Errorf("misc bits %#x -> %#x across promotion", misc, o.Header()&object.MiscMask)
	}
}

func TestOnly32SlotsGetHot(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 1})
	th := f.thread(t)
	// Promote far more objects than there are slots.
	hot := 0
	for i := 0; i < 100; i++ {
		o := f.heap.New("X")
		f.h.Lock(th, o)
		if err := f.h.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
		if o.Header()&hotBit != 0 {
			hot++
		}
	}
	if hot != DefaultSlots {
		t.Errorf("hot objects = %d, want exactly %d", hot, DefaultSlots)
	}
	if f.h.HotCount() != DefaultSlots {
		t.Errorf("HotCount = %d, want %d", f.h.HotCount(), DefaultSlots)
	}
}

func TestNestedLockingHotAndCold(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 3})
	th := f.thread(t)
	o := f.heap.New("X")
	// Cold nested.
	f.h.Lock(th, o)
	f.h.Lock(th, o)
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	// Promote, then hot nested.
	f.h.Lock(th, o)
	if err := f.h.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if o.Header()&hotBit == 0 {
		t.Fatal("not promoted")
	}
	f.h.Lock(th, o)
	f.h.Lock(th, o)
	f.h.Lock(th, o)
	for i := 0; i < 3; i++ {
		if err := f.h.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.h.Unlock(th, o); err != ErrIllegalMonitorState {
		t.Fatalf("extra unlock: err = %v", err)
	}
}

func TestIllegalStates(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	if err := f.h.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("unlock never-locked: %v", err)
	}
	if _, err := f.h.Wait(a, o, 0); err != ErrIllegalMonitorState {
		t.Fatalf("wait never-locked: %v", err)
	}
	if err := f.h.Notify(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("notify never-locked: %v", err)
	}
	if err := f.h.NotifyAll(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("notifyAll never-locked: %v", err)
	}
	f.h.Lock(a, o)
	if err := f.h.Unlock(b, o); err != ErrIllegalMonitorState {
		t.Fatalf("unlock by non-owner: %v", err)
	}
	if err := f.h.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

func TestMutualExclusionAcrossPromotion(t *testing.T) {
	t.Parallel()
	// Contend on one object while it crosses the promotion threshold;
	// mutual exclusion must hold throughout the transition.
	f := newFixture(Options{Threshold: 50})
	o := f.heap.New("X")
	const goroutines, iters = 8, 300
	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := f.thread(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f.h.Lock(th, o)
				counter++
				if err := f.h.Unlock(th, o); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
	if f.h.Stats().Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", f.h.Stats().Promotions)
	}
}

func TestColdCacheSweep(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{MaxCold: 8, Threshold: 1000})
	th := f.thread(t)
	for i := 0; i < 40; i++ {
		o := f.heap.New("X")
		f.h.Lock(th, o)
		if err := f.h.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if f.h.Stats().Sweeps == 0 {
		t.Error("cold cache never swept under churn")
	}
}

func TestWaitNotifyHot(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 1})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	// Promote first.
	f.h.Lock(a, o)
	if err := f.h.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if o.Header()&hotBit == 0 {
		t.Fatal("not promoted")
	}
	woke := make(chan bool, 1)
	go func() {
		f.h.Lock(a, o)
		n, err := f.h.Wait(a, o, 0)
		if err != nil {
			t.Error(err)
		}
		woke <- n
		if err := f.h.Unlock(a, o); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.h.Lock(b, o)
		if err := f.h.NotifyAll(b, o); err != nil {
			t.Fatal(err)
		}
		if err := f.h.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-woke:
			if !n {
				t.Fatal("timeout wake")
			}
			return
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("hot waiter never notified")
			}
		}
	}
}

func TestWaitNotifyCold(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 1000}) // never promotes
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")
	woke := make(chan bool, 1)
	go func() {
		f.h.Lock(a, o)
		n, err := f.h.Wait(a, o, 0)
		if err != nil {
			t.Error(err)
		}
		woke <- n
		if err := f.h.Unlock(a, o); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.h.Lock(b, o)
		if err := f.h.Notify(b, o); err != nil {
			t.Fatal(err)
		}
		if err := f.h.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-woke:
			if !n {
				t.Fatal("timeout wake")
			}
			return
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("cold waiter never notified")
			}
		}
	}
}

func TestColdCountAndSlots(t *testing.T) {
	t.Parallel()
	f := newFixture(Options{Threshold: 1000}) // never promotes
	th := f.thread(t)
	if f.h.Slots() != DefaultSlots {
		t.Errorf("Slots = %d", f.h.Slots())
	}
	for i := 0; i < 5; i++ {
		o := f.heap.New("X")
		f.h.Lock(th, o)
		if err := f.h.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if f.h.ColdCount() != 5 {
		t.Errorf("ColdCount = %d, want 5", f.h.ColdCount())
	}
}

func TestName(t *testing.T) {
	t.Parallel()
	if NewDefault().Name() != "IBM112" {
		t.Error("Name mismatch")
	}
}

func TestHotWordEncoding(t *testing.T) {
	t.Parallel()
	w := hotWord(17, 0xA5)
	if w&hotBit == 0 {
		t.Error("hot bit missing")
	}
	if slotOf(w) != 17 {
		t.Errorf("slot = %d, want 17", slotOf(w))
	}
	if w&object.MiscMask != 0xA5 {
		t.Errorf("misc = %#x, want 0xA5", w&object.MiscMask)
	}
}

// TestPromotionRaceKeepsOneMonitor replays, step by step, the promotion
// race: a thread reads the object's cold header and then waits for h.mu
// while the lock's owner promotes the object. When the late thread gets
// h.mu the cold entry is gone. It must follow the now-hot header to the
// promoted monitor and block there, not create a second cold monitor and
// enter the critical section beside the owner.
func TestPromotionRaceKeepsOneMonitor(t *testing.T) {
	f := newFixture(Options{Threshold: 2})
	holder, promoter, late := f.thread(t), f.thread(t), f.thread(t)
	o := f.heap.New("X")

	f.h.Lock(holder, o) // frequency 1: stays cold
	f.h.mu.Lock()
	e := f.h.cold[o.ID()]
	f.h.mu.Unlock()

	promoted := make(chan struct{})
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	go func() {
		f.h.Lock(promoter, o) // frequency 2: reserves a hot slot
		close(promoted)
		<-release
		if err := f.h.Unlock(promoter, o); err != nil {
			t.Error(err)
		}
	}()
	testutil.Eventually(t, 0, "promoter queued on the cold monitor", func() bool { return e.mon.EntryQueueLen() == 1 })

	// Hand the monitor to the promoter while holding h.mu, so it parks
	// at its promotion step; then park the late thread in coldLookup
	// behind it.
	f.h.mu.Lock()
	if err := e.mon.Exit(holder); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, 0, "promoter parked on h.mu", func() bool {
		return mutexWaiterIn("(*HotLocks).lockBody", "(*HotLocks).coldLookup")
	})
	lateAcquired := make(chan struct{})
	go func() {
		f.h.Lock(late, o)
		close(lateAcquired)
		if err := f.h.Unlock(late, o); err != nil {
			t.Error(err)
		}
	}()
	testutil.Eventually(t, 0, "late thread parked in coldLookup", func() bool {
		return mutexWaiterIn("(*HotLocks).coldLookup", "")
	})
	f.h.mu.Unlock()

	<-promoted
	testutil.Eventually(t, 0, "late thread blocked on the hot monitor", func() bool {
		select {
		case <-lateAcquired:
			t.Fatal("late thread acquired the lock while the promoter held it (second monitor created)")
		default:
		}
		return e.mon.EntryQueueLen() == 1
	})
	close(release)
	<-lateAcquired
	if n := f.h.ColdCount(); n != 0 {
		t.Errorf("ColdCount = %d after promotion, want 0", n)
	}
	if p := f.h.Stats().Promotions; p != 1 {
		t.Errorf("Promotions = %d, want 1", p)
	}
}

// mutexWaiterIn reports whether a goroutine started by
// TestPromotionRaceKeepsOneMonitor is parked acquiring a sync.Mutex with
// frame `in`, but not frame `notIn`, on its stack.
func mutexWaiterIn(in, notIn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, in) &&
			strings.Contains(g, "created by thinlock/internal/hotlocks.TestPromotionRaceKeepsOneMonitor") &&
			(notIn == "" || !strings.Contains(g, notIn)) {
			return true
		}
	}
	return false
}
