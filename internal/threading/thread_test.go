package threading

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAttachAssignsIndices(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a, err := r.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Index() == 0 || b.Index() == 0 {
		t.Fatalf("indices must be nonzero: a=%d b=%d", a.Index(), b.Index())
	}
	if a.Index() == b.Index() {
		t.Fatalf("distinct threads share index %d", a.Index())
	}
	if a.Shifted() != uint32(a.Index())<<IndexShift {
		t.Errorf("Shifted() = %#x, want index %d << %d", a.Shifted(), a.Index(), IndexShift)
	}
}

func TestIndexFitsIn15Bits(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		th, err := r.Attach("t")
		if err != nil {
			t.Fatal(err)
		}
		if th.Index() > MaxThreads {
			t.Fatalf("index %d exceeds 15-bit space", th.Index())
		}
		// The shifted form must not touch the shape bit (bit 31) or
		// the count/misc bits (low 16).
		if th.Shifted()&0x8000FFFF != 0 {
			t.Fatalf("shifted index %#x spills outside bits 30..16", th.Shifted())
		}
	}
}

func TestLookup(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a, _ := r.Attach("a")
	if got := r.Lookup(a.Index()); got != a {
		t.Errorf("Lookup(%d) = %v, want %v", a.Index(), got, a)
	}
	if got := r.Lookup(0); got != nil {
		t.Errorf("Lookup(0) = %v, want nil", got)
	}
	if got := r.Lookup(12345); got != nil {
		t.Errorf("Lookup(unassigned) = %v, want nil", got)
	}
}

func TestDetachRecyclesIndex(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a, _ := r.Attach("a")
	idx := a.Index()
	r.Detach(a)
	if r.Lookup(idx) != nil {
		t.Fatalf("Lookup(%d) non-nil after detach", idx)
	}
	b, _ := r.Attach("b")
	if b.Index() != idx {
		t.Errorf("recycled index = %d, want %d", b.Index(), idx)
	}
	if r.Attached() != 1 {
		t.Errorf("Attached() = %d, want 1", r.Attached())
	}
}

func TestDetachIsIdempotent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a, _ := r.Attach("a")
	r.Detach(a)
	r.Detach(a) // second detach must not corrupt the free list
	b, _ := r.Attach("b")
	c, _ := r.Attach("c")
	if b.Index() == c.Index() {
		t.Fatalf("double-detach caused duplicate index %d", b.Index())
	}
	r.Detach(nil) // must not panic
}

func TestRegistryExhaustion(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("allocates 32767 threads")
	}
	r := NewRegistry()
	for i := 0; i < MaxThreads; i++ {
		if _, err := r.Attach("t"); err != nil {
			t.Fatalf("attach %d failed early: %v", i, err)
		}
	}
	if _, err := r.Attach("overflow"); err != ErrTooManyThreads {
		t.Fatalf("attach beyond MaxThreads: err = %v, want ErrTooManyThreads", err)
	}
}

func TestRegistryStats(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	a, _ := r.Attach("a")
	b, _ := r.Attach("b")
	r.Detach(a)
	if r.Peak() != 2 {
		t.Errorf("Peak() = %d, want 2", r.Peak())
	}
	if r.TotalAttached() != 2 {
		t.Errorf("TotalAttached() = %d, want 2", r.TotalAttached())
	}
	if r.Attached() != 1 {
		t.Errorf("Attached() = %d, want 1", r.Attached())
	}
	r.Detach(b)
}

func TestGoRunsAndDetaches(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var ran *Thread
	done, err := r.Go("worker", func(th *Thread) { ran = th })
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if ran == nil {
		t.Fatal("fn never ran")
	}
	if r.Attached() != 0 {
		t.Errorf("Attached() = %d after Go completes, want 0", r.Attached())
	}
}

func TestConcurrentAttachDetach(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				th, err := r.Attach("t")
				if err != nil {
					t.Error(err)
					return
				}
				r.Detach(th)
			}
		}()
	}
	wg.Wait()
	if r.Attached() != 0 {
		t.Errorf("Attached() = %d, want 0", r.Attached())
	}
}

// Property: indices handed out at any instant are unique.
func TestUniqueIndicesProperty(t *testing.T) {
	t.Parallel()
	prop := func(n uint8) bool {
		r := NewRegistry()
		seen := make(map[uint16]bool)
		for i := 0; i < int(n%64)+1; i++ {
			th, err := r.Attach("t")
			if err != nil {
				return false
			}
			if seen[th.Index()] {
				return false
			}
			seen[th.Index()] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// parker returns the Parker of a freshly attached thread: Attach makes
// its channel.
func parker(t *testing.T) *Parker {
	t.Helper()
	th, err := NewRegistry().Attach("p")
	if err != nil {
		t.Fatal(err)
	}
	return th.Parker()
}

func TestParkerUnparkBeforePark(t *testing.T) {
	t.Parallel()
	p := parker(t)
	p.Unpark()
	doneCh := make(chan struct{})
	go func() {
		p.Park() // must not block: permit already available
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("Park blocked despite earlier Unpark")
	}
}

func TestParkerUnparksCoalesce(t *testing.T) {
	t.Parallel()
	p := parker(t)
	p.Unpark()
	p.Unpark()
	p.Unpark()
	if !p.ParkTimeout(0) {
		t.Fatal("no permit after Unpark")
	}
	if p.ParkTimeout(0) {
		t.Fatal("second permit available; Unparks must coalesce to one")
	}
}

func TestParkerTimeout(t *testing.T) {
	t.Parallel()
	p := parker(t)
	start := time.Now()
	if p.ParkTimeout(20 * time.Millisecond) {
		t.Fatal("ParkTimeout returned true with no permit")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("ParkTimeout returned after %v, want >= ~20ms", elapsed)
	}
}

func TestParkerParkAfterUnparkCrossGoroutine(t *testing.T) {
	t.Parallel()
	p := parker(t)
	released := make(chan struct{})
	go func() {
		p.Park()
		close(released)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Unpark()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Park never released by Unpark")
	}
}

func TestInterruptStatusAndWake(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	th, _ := r.Attach("t")
	if th.IsInterrupted() {
		t.Fatal("fresh thread interrupted")
	}
	woke := make(chan struct{})
	go func() {
		th.Parker().Park()
		close(woke)
	}()
	th.Interrupt()
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("Interrupt did not unpark the thread")
	}
	if !th.IsInterrupted() {
		t.Fatal("interrupt status not set")
	}
	if !th.Interrupted() {
		t.Fatal("Interrupted() did not report status")
	}
	if th.IsInterrupted() {
		t.Fatal("Interrupted() did not clear status")
	}
	th.Interrupt() // not parked: leaves a permit, must not block
	if !th.Parker().ParkTimeout(0) {
		t.Fatal("Interrupt of a running thread left no permit")
	}
}

func TestThreadString(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	th, _ := r.Attach("worker")
	want := "thread(worker#1)"
	if th.String() != want {
		t.Errorf("String() = %q, want %q", th.String(), want)
	}
}

func BenchmarkAttachDetach(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		th, _ := r.Attach("t")
		r.Detach(th)
	}
}
