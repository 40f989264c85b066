package monitor

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/telemetry"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

func newThreads(t *testing.T, n int) []*threading.Thread {
	t.Helper()
	r := threading.NewRegistry()
	out := make([]*threading.Thread, n)
	for i := range out {
		th, err := r.Attach("t")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = th
	}
	return out
}

func TestEnterExitBasic(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.Enter(ths[0], nil)
	if m.OwnerIndex() != ths[0].Index() {
		t.Fatalf("owner = %d, want %d", m.OwnerIndex(), ths[0].Index())
	}
	if m.Count() != 1 {
		t.Fatalf("count = %d, want 1", m.Count())
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	if m.OwnerIndex() != 0 {
		t.Fatalf("owner = %d after exit, want 0", m.OwnerIndex())
	}
}

func TestRecursiveEnter(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	for i := 1; i <= 5; i++ {
		m.Enter(ths[0], nil)
		if m.Count() != uint32(i) {
			t.Fatalf("count = %d after %d enters", m.Count(), i)
		}
	}
	for i := 4; i >= 0; i-- {
		if err := m.Exit(ths[0]); err != nil {
			t.Fatal(err)
		}
		if m.Count() != uint32(i) {
			t.Fatalf("count = %d, want %d", m.Count(), i)
		}
	}
	if m.OwnerIndex() != 0 {
		t.Fatal("owner survives balanced exit")
	}
}

func TestExitWithoutOwnership(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	if err := m.Exit(ths[0]); err != ErrIllegalMonitorState {
		t.Fatalf("exit of unowned monitor: err = %v", err)
	}
	m.Enter(ths[0], nil)
	if err := m.Exit(ths[1]); err != ErrIllegalMonitorState {
		t.Fatalf("exit by non-owner: err = %v", err)
	}
	if m.OwnerIndex() != ths[0].Index() || m.Count() != 1 {
		t.Fatal("failed exit perturbed monitor state")
	}
}

func TestTryEnter(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	if !m.TryEnter(ths[0]) {
		t.Fatal("TryEnter of free monitor failed")
	}
	if !m.TryEnter(ths[0]) {
		t.Fatal("recursive TryEnter failed")
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d, want 2", m.Count())
	}
	if m.TryEnter(ths[1]) {
		t.Fatal("TryEnter by second thread succeeded while owned")
	}
}

// enableTelemetry installs a fresh global telemetry for the rest of the
// test. Its callers are not parallel, so the counts are the test's own.
func enableTelemetry(t *testing.T) *telemetry.Telemetry {
	t.Helper()
	tel := telemetry.Enable(telemetry.New())
	t.Cleanup(telemetry.Disable)
	return tel
}

func TestContendedEnterBlocksAndHandsOff(t *testing.T) {
	tel := enableTelemetry(t)
	ths := newThreads(t, 2)
	m := New()
	m.Enter(ths[0], nil)
	entered := make(chan struct{})
	go func() {
		m.Enter(ths[1], nil)
		close(entered)
	}()
	// Give the second thread time to queue.
	waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
	select {
	case <-entered:
		t.Fatal("second thread entered while monitor owned")
	default:
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("handoff never happened")
	}
	if m.OwnerIndex() != ths[1].Index() || m.Count() != 1 {
		t.Fatalf("owner=%d count=%d after handoff", m.OwnerIndex(), m.Count())
	}
	if n := tel.Counter(telemetry.CtrMonitorContendedEntries); n != 1 {
		t.Errorf("contended entries = %d, want 1", n)
	}
}

func TestHandoffIsFIFO(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 4)
	m := New()
	m.Enter(ths[0], nil)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		// Queue strictly one at a time so the queue order is known.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Enter(ths[i], nil)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if err := m.Exit(ths[i]); err != nil {
				t.Error(err)
			}
		}(i)
		waitFor(t, func() bool { return m.EntryQueueLen() == i })
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("handoff order = %v, want [1 2 3]", order)
		}
	}
}

// TestMutualExclusion hammers a counter through the monitor and checks
// that no increment is lost and no two threads are ever inside at once.
func TestMutualExclusion(t *testing.T) {
	t.Parallel()
	const goroutines, iters = 8, 300
	ths := newThreads(t, goroutines)
	m := New()
	var inside, maxInside, counter int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(th *threading.Thread) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Enter(th, nil)
				n := atomic.AddInt32(&inside, 1)
				if n > 1 {
					atomic.StoreInt32(&maxInside, n)
				}
				counter++
				atomic.AddInt32(&inside, -1)
				if err := m.Exit(th); err != nil {
					t.Error(err)
				}
			}
		}(ths[g])
	}
	wg.Wait()
	if maxInside > 1 {
		t.Fatalf("%d threads inside the monitor at once", maxInside)
	}
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, goroutines*iters)
	}
}

func TestSeedOwner(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.SeedOwner(ths[0], 7)
	if m.OwnerIndex() != ths[0].Index() || m.Count() != 7 {
		t.Fatalf("owner=%d count=%d after seed", m.OwnerIndex(), m.Count())
	}
	for i := 0; i < 7; i++ {
		if err := m.Exit(ths[0]); err != nil {
			t.Fatal(err)
		}
	}
	if m.OwnerIndex() != 0 {
		t.Fatal("owner after unwinding seeded count")
	}
}

func TestSeedOwnerPanicsWhenInUse(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	m.Enter(ths[0], nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SeedOwner on owned monitor did not panic")
		}
	}()
	m.SeedOwner(ths[1], 1)
}

func TestSeedOwnerPanicsOnZeroCount(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("SeedOwner with zero count did not panic")
		}
	}()
	m.SeedOwner(ths[0], 0)
}

func TestWaitRequiresOwnership(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	if _, err := m.Wait(ths[0], 0); err != ErrIllegalMonitorState {
		t.Fatalf("wait without ownership: err = %v", err)
	}
	if err := m.Notify(ths[0]); err != ErrIllegalMonitorState {
		t.Fatalf("notify without ownership: err = %v", err)
	}
	if err := m.NotifyAll(ths[0]); err != ErrIllegalMonitorState {
		t.Fatalf("notifyAll without ownership: err = %v", err)
	}
}

func TestWaitNotify(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	woke := make(chan bool, 1)
	go func() {
		m.Enter(ths[0], nil)
		notified, err := m.Wait(ths[0], 0)
		if err != nil {
			t.Error(err)
		}
		woke <- notified
		if err := m.Exit(ths[0]); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	m.Enter(ths[1], nil)
	if err := m.Notify(ths[1]); err != nil {
		t.Fatal(err)
	}
	// Waiter must not wake until we exit (it has to re-acquire).
	select {
	case <-woke:
		t.Fatal("waiter resumed while notifier still owns monitor")
	case <-time.After(30 * time.Millisecond):
	}
	if err := m.Exit(ths[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case notified := <-woke:
		if !notified {
			t.Fatal("waiter reported timeout, want notified")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestWaitReleasesFullRecursionAndRestoresIt(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	depthRestored := make(chan uint32, 1)
	go func() {
		m.Enter(ths[0], nil)
		m.Enter(ths[0], nil)
		m.Enter(ths[0], nil) // depth 3
		if _, err := m.Wait(ths[0], 0); err != nil {
			t.Error(err)
		}
		depthRestored <- m.Count()
		for i := 0; i < 3; i++ {
			if err := m.Exit(ths[0]); err != nil {
				t.Error(err)
			}
		}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	// The wait must have fully released: we can enter immediately.
	m.Enter(ths[1], nil)
	if err := m.Notify(ths[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(ths[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-depthRestored:
		if d != 3 {
			t.Fatalf("restored depth = %d, want 3", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never resumed")
	}
}

func TestWaitTimeout(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.Enter(ths[0], nil)
	start := time.Now()
	notified, err := m.Wait(ths[0], 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if notified {
		t.Fatal("notified = true on timeout")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("wait returned after %v, want >= ~30ms", elapsed)
	}
	// Lock must be re-held after a timed-out wait.
	if m.OwnerIndex() != ths[0].Index() || m.Count() != 1 {
		t.Fatalf("owner=%d count=%d after timeout", m.OwnerIndex(), m.Count())
	}
	if m.WaitSetLen() != 0 {
		t.Fatal("stale node left in wait set")
	}
}

func TestWaitTimeoutRecontends(t *testing.T) {
	t.Parallel()
	// A timed-out waiter must queue behind the current owner.
	ths := newThreads(t, 2)
	m := New()
	resumed := make(chan struct{})
	go func() {
		m.Enter(ths[0], nil)
		if _, err := m.Wait(ths[0], 250*time.Millisecond); err != nil {
			t.Error(err)
		}
		close(resumed)
		if err := m.Exit(ths[0]); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	m.Enter(ths[1], nil) // hold the lock across the waiter's timeout
	// The timed-out waiter must land in the entry queue, not resume.
	waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
	select {
	case <-resumed:
		t.Fatal("timed-out waiter resumed while lock held elsewhere")
	default:
	}
	if err := m.Exit(ths[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resumed:
	case <-time.After(2 * time.Second):
		t.Fatal("timed-out waiter never re-acquired")
	}
}

func TestNotifyWakesExactlyOne(t *testing.T) {
	t.Parallel()
	const waiters = 4
	ths := newThreads(t, waiters+1)
	m := New()
	var woken atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(th *threading.Thread) {
			defer wg.Done()
			m.Enter(th, nil)
			if _, err := m.Wait(th, 0); err != nil {
				t.Error(err)
			}
			woken.Add(1)
			if err := m.Exit(th); err != nil {
				t.Error(err)
			}
		}(ths[i])
	}
	waitFor(t, func() bool { return m.WaitSetLen() == waiters })

	notifier := ths[waiters]
	m.Enter(notifier, nil)
	if err := m.Notify(notifier); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(notifier); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return woken.Load() == 1 })
	time.Sleep(30 * time.Millisecond)
	if woken.Load() != 1 {
		t.Fatalf("woken = %d after single notify, want 1", woken.Load())
	}

	// Clean up: wake the rest.
	m.Enter(notifier, nil)
	if err := m.NotifyAll(notifier); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(notifier); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if woken.Load() != waiters {
		t.Fatalf("woken = %d after notifyAll, want %d", woken.Load(), waiters)
	}
}

func TestNotifyAllWakesAll(t *testing.T) {
	t.Parallel()
	const waiters = 6
	ths := newThreads(t, waiters+1)
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(th *threading.Thread) {
			defer wg.Done()
			m.Enter(th, nil)
			notified, err := m.Wait(th, 0)
			if err != nil {
				t.Error(err)
			}
			if !notified {
				t.Error("waiter woke without notify")
			}
			if err := m.Exit(th); err != nil {
				t.Error(err)
			}
		}(ths[i])
	}
	waitFor(t, func() bool { return m.WaitSetLen() == waiters })
	m.Enter(ths[waiters], nil)
	if err := m.NotifyAll(ths[waiters]); err != nil {
		t.Fatal(err)
	}
	if m.WaitSetLen() != 0 {
		t.Fatal("wait set nonempty after notifyAll")
	}
	if err := m.Exit(ths[waiters]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestNotifyWithEmptyWaitSetIsNoop(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.Enter(ths[0], nil)
	if err := m.Notify(ths[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.NotifyAll(ths[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
}

func TestWaitInterrupted(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	errCh := make(chan error, 1)
	go func() {
		m.Enter(ths[0], nil)
		_, err := m.Wait(ths[0], 0)
		errCh <- err
		if e := m.Exit(ths[0]); e != nil {
			t.Error(e)
		}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	ths[0].Interrupt()
	select {
	case err := <-errCh:
		if err != threading.ErrInterrupted {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("interrupt did not wake waiter")
	}
	if ths[0].IsInterrupted() {
		t.Fatal("interrupt status not cleared by interrupted wait")
	}
}

func TestWaitWithPendingInterrupt(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.Enter(ths[0], nil)
	ths[0].Interrupt()
	if _, err := m.Wait(ths[0], 0); err != threading.ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// The monitor must still be held.
	if m.OwnerIndex() != ths[0].Index() {
		t.Fatal("pending-interrupt wait released the monitor")
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescent(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	if !m.Quiescent() {
		t.Fatal("fresh monitor not quiescent")
	}
	m.Enter(ths[0], nil)
	if m.Quiescent() {
		t.Fatal("owned monitor reported quiescent")
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	if !m.Quiescent() {
		t.Fatal("released monitor not quiescent")
	}
}

func TestStatsCounters(t *testing.T) {
	tel := enableTelemetry(t)
	ths := newThreads(t, 2)
	m := New()
	m.Enter(ths[0], nil)
	go func() {
		time.Sleep(20 * time.Millisecond)
		if err := m.Exit(ths[0]); err != nil {
			t.Error(err)
		}
	}()
	m.Enter(ths[1], nil) // contended
	if err := m.Notify(ths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ths[1], 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(ths[1]); err != nil {
		t.Fatal(err)
	}
	if tel.Counter(telemetry.CtrMonitorContendedEntries) == 0 {
		t.Error("contended entries not counted")
	}
	if n := tel.Counter(telemetry.CtrWaits); n != 1 {
		t.Errorf("waits = %d, want 1", n)
	}
	if n := tel.Counter(telemetry.CtrNotifies); n != 1 {
		t.Errorf("notifies = %d, want 1", n)
	}
}

// waitFor blocks until a monitor-state condition raced by another
// goroutine holds, via the shared bounded-backoff helper.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	testutil.Eventually(t, 10*time.Second, "monitor condition", cond)
}

func BenchmarkUncontendedEnterExit(b *testing.B) {
	r := threading.NewRegistry()
	th, _ := r.Attach("b")
	m := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Enter(th, nil)
		if err := m.Exit(th); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecursiveEnterExit(b *testing.B) {
	r := threading.NewRegistry()
	th, _ := r.Attach("b")
	m := New()
	m.Enter(th, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Enter(th, nil)
		if err := m.Exit(th); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMonitorString(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.Enter(ths[0], nil)
	s := m.String()
	for _, want := range []string{"monitor(", "count=1", "entry=0", "wait=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
}
