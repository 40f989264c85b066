package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/object"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

type fixture struct {
	l    *ThinLocks
	heap *object.Heap
	reg  *threading.Registry
}

func newFixture(t *testing.T, opts Options) *fixture {
	t.Helper()
	return &fixture{l: New(opts), heap: object.NewHeap(), reg: threading.NewRegistry()}
}

func (f *fixture) thread(t *testing.T) *threading.Thread {
	t.Helper()
	th, err := f.reg.Attach("t")
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestLockUnlockedObject(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	th := f.thread(t)
	o := f.heap.New("X")
	misc := o.Misc()

	f.l.Lock(th, o)
	w := o.Header()
	if IsInflated(w) {
		t.Fatal("uncontended lock inflated")
	}
	if ThinOwner(w) != th.Index() {
		t.Fatalf("owner = %d, want %d", ThinOwner(w), th.Index())
	}
	if ThinCount(w) != 0 {
		t.Fatalf("count = %d after first lock, want 0 (locks-1)", ThinCount(w))
	}
	if w&MiscMask != misc {
		t.Fatalf("misc bits changed: %#x -> %#x", misc, w&MiscMask)
	}

	if err := f.l.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
	if o.Header() != misc {
		t.Fatalf("header = %#x after unlock, want pure misc %#x", o.Header(), misc)
	}
}

func TestNestedLocking(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	th := f.thread(t)
	o := f.heap.New("X")

	const depth = 10
	for i := 0; i < depth; i++ {
		f.l.Lock(th, o)
		if got := ThinCount(o.Header()); got != uint32(i) {
			t.Fatalf("count = %d after %d locks, want %d", got, i+1, i)
		}
	}
	if IsInflated(o.Header()) {
		t.Fatal("shallow nesting inflated the lock")
	}
	for i := depth - 1; i >= 0; i-- {
		if err := f.l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if got := ThinCount(o.Header()); got != uint32(i-1) {
				t.Fatalf("count = %d after unlock to depth %d", got, i)
			}
		}
	}
	if !IsUnlocked(o.Header()) {
		t.Fatalf("header = %#x after balanced unlocks", o.Header())
	}
}

// TestCountOverflowInflates drives nesting past 256: the 257th lock must
// inflate, carrying the full count into the fat lock.
func TestCountOverflowInflates(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	th := f.thread(t)
	o := f.heap.New("X")

	for i := 0; i < 256; i++ {
		f.l.Lock(th, o)
	}
	if IsInflated(o.Header()) {
		t.Fatal("inflated before the 257th lock")
	}
	if got := ThinCount(o.Header()); got != 255 {
		t.Fatalf("count = %d at 256 locks, want 255", got)
	}

	f.l.Lock(th, o) // 257th
	if !IsInflated(o.Header()) {
		t.Fatal("257th lock did not inflate")
	}
	m := f.l.Monitor(o)
	if m.Count() != 257 {
		t.Fatalf("fat count = %d, want 257", m.Count())
	}
	if m.OwnerIndex() != th.Index() {
		t.Fatal("fat owner is not the inflating thread")
	}
	if s := f.l.Stats(); s.InflationsOverflow != 1 {
		t.Errorf("InflationsOverflow = %d, want 1", s.InflationsOverflow)
	}

	for i := 0; i < 257; i++ {
		if err := f.l.Unlock(th, o); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if !IsInflated(o.Header()) {
		t.Fatal("lock deflated; paper's locks stay inflated")
	}
	if m.OwnerIndex() != 0 {
		t.Fatal("owner after full unwind")
	}
}

// TestInflationAllocatesOnlyChunks: the monitor table holds monitors by
// value in chunks of 64, so inflating allocates at most a chunk and a
// segment of the chunk directory per 64 monitors, and nothing per
// monitor.
// Each object inflates by count overflow: with a 1-bit count its third
// nested lock overflows. Deliberately not parallel: AllocsPerRun reads
// global allocation counters.
func TestInflationAllocatesOnlyChunks(t *testing.T) {
	const perRun = 320 // five chunks
	f := newFixture(t, Options{CountBits: 1})
	th := f.thread(t)
	objs := make([]*object.Object, 2*perRun) // AllocsPerRun's warm-up run, then the measured one
	for i := range objs {
		objs[i] = f.heap.New("X")
	}
	next := 0
	avg := testing.AllocsPerRun(1, func() {
		for _, o := range objs[next : next+perRun] {
			for i := 0; i < 3; i++ {
				f.l.Lock(th, o)
			}
			for i := 0; i < 3; i++ {
				if err := f.l.Unlock(th, o); err != nil {
					t.Fatal(err)
				}
			}
		}
		next += perRun
	})
	if s := f.l.Stats(); s.InflationsOverflow != 2*perRun || s.FatLocks != 2*perRun {
		t.Fatalf("InflationsOverflow = %d, FatLocks = %d, want %d each", s.InflationsOverflow, s.FatLocks, 2*perRun)
	}
	if limit := 2.0 * perRun / 64; avg > limit {
		t.Fatalf("%d inflations allocated %.0f objects, want at most %.0f (a chunk and a directory segment per 64)", perRun, avg, limit)
	}
}

func TestUnlockWithoutOwnership(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	if err := f.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("unlock of unlocked object: err = %v", err)
	}
	f.l.Lock(a, o)
	if err := f.l.Unlock(b, o); err != ErrIllegalMonitorState {
		t.Fatalf("unlock by non-owner: err = %v", err)
	}
	// State unperturbed.
	if ThinOwner(o.Header()) != a.Index() || ThinCount(o.Header()) != 0 {
		t.Fatal("failed unlock modified the lock word")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

func TestContentionInflates(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	f.l.Lock(a, o)
	acquired := make(chan struct{})
	go func() {
		f.l.Lock(b, o) // must spin, then inflate
		close(acquired)
	}()
	// Let B reach the spin loop.
	waitForStat(t, func() bool { return f.l.Stats().SpinRounds > 0 })
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
		t.Fatal("B never acquired after A released")
	}
	if !IsInflated(o.Header()) {
		t.Fatal("contention did not inflate the lock")
	}
	m := f.l.Monitor(o)
	if m.OwnerIndex() != b.Index() || m.Count() != 1 {
		t.Fatalf("fat owner=%d count=%d, want B with 1", m.OwnerIndex(), m.Count())
	}
	s := f.l.Stats()
	if s.InflationsContention != 1 {
		t.Errorf("InflationsContention = %d, want 1", s.InflationsContention)
	}
	if s.SpinAcquisitions != 1 {
		t.Errorf("SpinAcquisitions = %d, want 1", s.SpinAcquisitions)
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	// Figure 2(c): the object stays inflated after unlock.
	if !IsInflated(o.Header()) {
		t.Fatal("object deflated on unlock")
	}
}

func TestInflatedLockStaysInflatedAndWorks(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	inflateByContention(t, f, a, b, o)
	if !IsInflated(o.Header()) {
		t.Fatal("contention did not inflate")
	}

	// Subsequent lock/unlock cycles use the fat lock.
	for i := 0; i < 5; i++ {
		f.l.Lock(a, o)
		f.l.Lock(a, o)
		if m := f.l.Monitor(o); m.Count() != 2 {
			t.Fatalf("fat count = %d, want 2", m.Count())
		}
		if err := f.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		if err := f.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.l.Stats().FatLocks; got != 1 {
		t.Errorf("FatLocks = %d, want 1 (no re-inflation)", got)
	}
}

// inflateByContention forces o's lock fat: a holds it, b contends.
func inflateByContention(t *testing.T, f *fixture, a, b *threading.Thread, o *object.Object) {
	t.Helper()
	f.l.Lock(a, o)
	done := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		if err := f.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitForStat(t, func() bool { return f.l.Stats().SpinRounds > 0 })
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	<-done
	if f.l.Stats().InflationsContention == 0 {
		t.Fatal("contention did not inflate")
	}
}

func TestMutualExclusionAllVariants(t *testing.T) {
	t.Parallel()
	variants := []Variant{
		VariantStandard, VariantInline, VariantFnCall,
		VariantMPSync, VariantKernelCAS, VariantUnlockCAS,
	}
	for _, v := range variants {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			f := newFixture(t, Options{Variant: v})
			o := f.heap.New("X")
			const goroutines, iters = 6, 400
			var counter int64
			var inside int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := f.thread(t)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						f.l.Lock(th, o)
						if atomic.AddInt32(&inside, 1) != 1 {
							t.Error("two threads inside critical section")
						}
						counter++
						atomic.AddInt32(&inside, -1)
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
		})
	}
}

func TestMutualExclusionWithCPUModels(t *testing.T) {
	t.Parallel()
	for _, cpu := range []arch.CPU{arch.PowerPCUP, arch.PowerPCMP, arch.POWER} {
		cpu := cpu
		t.Run(cpu.String(), func(t *testing.T) {
			t.Parallel()
			f := newFixture(t, Options{CPU: cpu})
			o := f.heap.New("X")
			const goroutines, iters = 4, 300
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
		})
	}
}

func TestWaitInflatesThinLock(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	notified := make(chan bool, 1)
	go func() {
		f.l.Lock(a, o)
		f.l.Lock(a, o) // depth 2 so the saved count is interesting
		n, err := f.l.Wait(a, o, 0)
		if err != nil {
			t.Error(err)
		}
		if m := f.l.Monitor(o); m.Count() != 2 {
			t.Errorf("restored count = %d, want 2", m.Count())
		}
		notified <- n
		if err := f.l.Unlock(a, o); err != nil {
			t.Error(err)
		}
		if err := f.l.Unlock(a, o); err != nil {
			t.Error(err)
		}
	}()

	// Wait until A is in the wait set; the lock must now be inflated
	// and free.
	waitForStat(t, func() bool {
		return IsInflated(o.Header()) && f.l.Monitor(o).WaitSetLen() == 1
	})
	if s := f.l.Stats(); s.InflationsWait != 1 {
		t.Errorf("InflationsWait = %d, want 1", s.InflationsWait)
	}

	f.l.Lock(b, o)
	if err := f.l.Notify(b, o); err != nil {
		t.Fatal(err)
	}
	if err := f.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notified:
		if !n {
			t.Fatal("waiter reported timeout, want notified")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestWaitTimeoutViaAPI(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	th := f.thread(t)
	o := f.heap.New("X")
	f.l.Lock(th, o)
	n, err := f.l.Wait(th, o, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n {
		t.Fatal("notified = true on timeout")
	}
	if err := f.l.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
}

func TestWaitNotifyErrorsWithoutOwnership(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	if _, err := f.l.Wait(a, o, 0); err != ErrIllegalMonitorState {
		t.Errorf("wait unowned: err = %v", err)
	}
	if err := f.l.Notify(a, o); err != ErrIllegalMonitorState {
		t.Errorf("notify unowned: err = %v", err)
	}
	if err := f.l.NotifyAll(a, o); err != ErrIllegalMonitorState {
		t.Errorf("notifyAll unowned: err = %v", err)
	}

	f.l.Lock(a, o)
	if _, err := f.l.Wait(b, o, 0); err != ErrIllegalMonitorState {
		t.Errorf("wait by non-owner: err = %v", err)
	}
	if err := f.l.Notify(b, o); err != ErrIllegalMonitorState {
		t.Errorf("notify by non-owner: err = %v", err)
	}
	// Notify with no waiters on an owned thin lock is a no-op success.
	if err := f.l.Notify(a, o); err != nil {
		t.Errorf("notify on owned thin lock: err = %v", err)
	}
	if err := f.l.NotifyAll(a, o); err != nil {
		t.Errorf("notifyAll on owned thin lock: err = %v", err)
	}
	if IsInflated(o.Header()) {
		t.Error("waiterless notify inflated the lock")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

func TestHolderIndex(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{})
	a, b := f.thread(t), f.thread(t)
	o := f.heap.New("X")

	if f.l.HolderIndex(o) != 0 {
		t.Error("holder of unlocked object != 0")
	}
	f.l.Lock(a, o)
	if f.l.HolderIndex(o) != a.Index() {
		t.Error("thin holder mismatch")
	}
	inflateByContentionFromHeld(t, f, a, b, o)
	f.l.Lock(a, o)
	if f.l.HolderIndex(o) != a.Index() {
		t.Error("fat holder mismatch")
	}
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if f.l.HolderIndex(o) != 0 {
		t.Error("holder of released fat lock != 0")
	}
}

// inflateByContentionFromHeld assumes a already holds o once, creates
// contention from b, and leaves o inflated and unlocked.
func inflateByContentionFromHeld(t *testing.T, f *fixture, a, b *threading.Thread, o *object.Object) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f.l.Lock(b, o)
		if err := f.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitForStat(t, func() bool { return f.l.Stats().SpinRounds > 0 })
	if err := f.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestPerInstanceIsolation(t *testing.T) {
	t.Parallel()
	// Two ThinLocks instances must not share monitor tables.
	f := newFixture(t, Options{})
	l2 := New(Options{})
	a, b := f.thread(t), f.thread(t)
	o1 := f.heap.New("X")
	o2 := f.heap.New("Y")
	inflateByContention(t, f, a, b, o1)
	if !IsInflated(o1.Header()) {
		t.Fatal("o1 not inflated")
	}
	// o2 inflated under l2 gets index 0 in l2's table; operations on it
	// through l2 must not touch f.l's monitor of the same index.
	l2.Lock(a, o2)
	done := make(chan struct{})
	go func() {
		l2.Lock(b, o2)
		if err := l2.Unlock(b, o2); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitForStat(t, func() bool { return l2.Stats().SpinRounds > 0 })
	if err := l2.Unlock(a, o2); err != nil {
		t.Fatal(err)
	}
	<-done
	if f.l.Stats().FatLocks != 1 || l2.Stats().FatLocks != 1 {
		t.Errorf("fat locks = %d/%d, want 1/1",
			f.l.Stats().FatLocks, l2.Stats().FatLocks)
	}
}

func TestNewDefaultAndInflatedAccessor(t *testing.T) {
	t.Parallel()
	l := NewDefault()
	if l.Variant() != VariantStandard {
		t.Error("NewDefault variant")
	}
	heap := object.NewHeap()
	o := heap.New("X")
	if l.Inflated(o) {
		t.Error("fresh object reported inflated")
	}
}

func TestNames(t *testing.T) {
	t.Parallel()
	if got := New(Options{}).Name(); got != "ThinLock" {
		t.Errorf("standard Name = %q", got)
	}
	if got := New(Options{Variant: VariantNOP}).Name(); got != "ThinLock/NOP" {
		t.Errorf("NOP Name = %q", got)
	}
	if New(Options{Variant: VariantInline}).Variant() != VariantInline {
		t.Error("Variant() mismatch")
	}
}

func TestNOPVariantDoesNothing(t *testing.T) {
	t.Parallel()
	f := newFixture(t, Options{Variant: VariantNOP})
	th := f.thread(t)
	o := f.heap.New("X")
	f.l.Lock(th, o)
	if o.Header() != o.Misc() {
		t.Error("NOP lock modified the header")
	}
	if err := f.l.Unlock(th, o); err != nil {
		t.Error(err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	t.Parallel()
	s := Stats{InflationsContention: 1, InflationsOverflow: 2, InflationsWait: 3}
	if s.Inflations() != 6 {
		t.Errorf("Inflations() = %d, want 6", s.Inflations())
	}
}

// waitForStat blocks until a stats condition raced by another goroutine
// holds, via the shared bounded-backoff helper.
func waitForStat(t *testing.T, cond func() bool) {
	t.Helper()
	testutil.Eventually(t, 5*time.Second, "stat condition", cond)
}
