package lockdep_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockdep"
	"thinlock/internal/lockevent"
	"thinlock/internal/minijava"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

// fixture holds a fresh Lockdep (not globally installed — these tests
// drive its methods directly), some threads and some objects.
type fixture struct {
	d    *lockdep.Lockdep
	heap *object.Heap
	reg  *threading.Registry
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return &fixture{
		d:    lockdep.New(lockdep.Config{}),
		heap: object.NewHeap(),
		reg:  threading.NewRegistry(),
	}
}

func (f *fixture) thread(t testing.TB, name string) *threading.Thread {
	t.Helper()
	th, err := f.reg.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// lockPair acquires a then b and releases both, in one call so both
// acquisitions share a Go call site.
func lockPair(d *lockdep.Lockdep, th *threading.Thread, a, b *object.Object) {
	d.Acquired(th, a)
	d.Acquired(th, b)
	d.Released(th, b)
	d.Released(th, a)
}

func TestABBAInversionFlagged(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "alpha"), f.thread(t, "beta")
	a, b := f.heap.New("Account"), f.heap.New("Account")

	lockPair(f.d, t1, a, b) // establishes a -> b
	if got := f.d.Inversions(); len(got) != 0 {
		t.Fatalf("inversions after one order = %d, want 0", len(got))
	}
	lockPair(f.d, t2, b, a) // inverse order: must be flagged immediately
	reps := f.d.Inversions()
	if len(reps) != 1 {
		t.Fatalf("inversions = %d, want 1", len(reps))
	}
	r := reps[0]
	if len(r.Cycle) != 2 {
		t.Fatalf("cycle length = %d, want 2", len(r.Cycle))
	}
	s := r.String()
	if !strings.Contains(s, "lock-order inversion") || !strings.Contains(s, "potential deadlock") {
		t.Errorf("report string %q missing expected phrasing", s)
	}
	for _, want := range []string{a.String(), b.String(), "alpha#", "beta#"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q does not mention %q", s, want)
		}
	}
	// The same cycle must not be reported twice.
	lockPair(f.d, t2, b, a)
	if got := f.d.Inversions(); len(got) != 1 {
		t.Errorf("duplicate cycle re-reported: inversions = %d, want 1", len(got))
	}
}

// A single transfer(x, y) site called with swapped arguments is the
// classic ABBA that site-keyed tracking cannot see. The graph is keyed
// by object, so it must be flagged even though every acquisition shares
// one VM site.
func TestSwappedArgumentsThroughOneSiteAreFlagged(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "alpha"), f.thread(t, "beta")
	a, b := f.heap.New("Account"), f.heap.New("Account")

	t1.PublishFrame("Bank.transfer", 42)
	lockPair(f.d, t1, a, b)
	t1.ClearFrame()

	t2.PublishFrame("Bank.transfer", 42)
	lockPair(f.d, t2, b, a)
	t2.ClearFrame()

	reps := f.d.Inversions()
	if len(reps) != 1 {
		t.Fatalf("swapped-argument ABBA through one site not flagged: inversions = %d, want 1", len(reps))
	}
	if !strings.Contains(reps[0].String(), "Bank.transfer @42") {
		t.Errorf("report %q does not carry the VM site", reps[0])
	}
}

func TestConsistentOrderIsNotFlagged(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	objs := make([]*object.Object, 6)
	for i := range objs {
		objs[i] = f.heap.New("Row")
	}
	for _, name := range []string{"w1", "w2", "w3"} {
		th := f.thread(t, name)
		// Each thread acquires ascending runs of the same objects.
		for lo := 0; lo < len(objs); lo++ {
			for hi := lo; hi < len(objs); hi++ {
				f.d.Acquired(th, objs[hi])
			}
			for hi := len(objs) - 1; hi >= lo; hi-- {
				f.d.Released(th, objs[hi])
			}
		}
	}
	st := f.d.Stats()
	if st.Inversions != 0 {
		t.Fatalf("consistent global order produced %d inversions", st.Inversions)
	}
	if st.Edges == 0 || st.Nodes != len(objs) {
		t.Errorf("graph did not record the order: %+v", st)
	}
}

// One thread taking a then b, and later b then a, establishes both
// orders itself — that cannot deadlock and must be suppressed. But the
// moment a second thread contributes to either edge, the cycle becomes
// a real hazard and must surface.
// TestSameIDObjectsFromTwoHeapsAreDistinctNodes: allocation ids restart
// at 1 in every heap, so objects of two heaps share ids. Locking heap
// one's #1 then #2 in one thread and heap two's #2 then #1 in another
// touches four different locks and cannot deadlock.
func TestSameIDObjectsFromTwoHeapsAreDistinctNodes(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "alpha"), f.thread(t, "beta")
	h1, h2 := object.NewHeap(), object.NewHeap()
	a1, b1 := h1.New("Account"), h1.New("Account")
	a2, b2 := h2.New("Account"), h2.New("Account")
	if a1.ID() != a2.ID() || b1.ID() != b2.ID() {
		t.Fatalf("ids %d/%d and %d/%d: want the heaps to share ids", a1.ID(), a2.ID(), b1.ID(), b2.ID())
	}

	lockPair(f.d, t1, a1, b1)
	lockPair(f.d, t2, b2, a2)
	if got := f.d.Inversions(); len(got) != 0 {
		t.Fatalf("inversions = %d, want 0 (objects of different heaps conflated):\n%v", len(got), got[0])
	}
	if st := f.d.Stats(); st.Nodes != 4 || st.Edges != 2 {
		t.Errorf("graph has %d nodes and %d edges, want 4 and 2", st.Nodes, st.Edges)
	}
}

// TestSameIndexThreadsFromTwoRegistriesKeepSeparateStacks: thread
// indices restart at 1 in every registry. While one registry's thread
// holds a, another registry's thread with the same index acquiring b
// does not hold a, so no a -> b edge may appear.
func TestSameIndexThreadsFromTwoRegistriesKeepSeparateStacks(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1 := f.thread(t, "alpha")
	t2, err := threading.NewRegistry().Attach("beta")
	if err != nil {
		t.Fatal(err)
	}
	if t1.Index() != t2.Index() {
		t.Fatalf("indices %d and %d: want the registries to share one", t1.Index(), t2.Index())
	}
	a, b := f.heap.New("A"), f.heap.New("B")

	f.d.Acquired(t1, a)
	f.d.Acquired(t2, b)
	f.d.Released(t2, b)
	f.d.Released(t1, a)
	if st := f.d.Stats(); st.Edges != 0 {
		t.Errorf("graph has %d edges, want 0 (two registries' threads shared a held stack)", st.Edges)
	}
}

func TestSingleThreadCycleSuppressedUntilSecondThread(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "solo"), f.thread(t, "intruder")
	a, b := f.heap.New("Res"), f.heap.New("Res")

	lockPair(f.d, t1, a, b)
	lockPair(f.d, t1, b, a)
	st := f.d.Stats()
	if st.Inversions != 0 {
		t.Fatalf("single-thread cycle reported as inversion")
	}
	if st.SingleThreadCycles == 0 {
		t.Fatalf("single-thread cycle not counted as suppressed")
	}
	// Second thread re-establishes a -> b: the edge goes multi-thread
	// and the suppressed cycle must now be reported.
	lockPair(f.d, t2, a, b)
	if got := f.d.Inversions(); len(got) != 1 {
		t.Fatalf("cycle not re-reported after second thread joined: inversions = %d, want 1", len(got))
	}
}

func TestNestedReacquisitionFoldsNoEdges(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	th := f.thread(t, "nest")
	a, b := f.heap.New("Obj"), f.heap.New("Obj")
	f.d.Acquired(th, a)
	f.d.Acquired(th, a) // recursive: no new entry, no edges
	f.d.Acquired(th, b)
	f.d.Acquired(th, b)
	f.d.Released(th, b)
	f.d.Released(th, b)
	f.d.Released(th, a)
	f.d.Released(th, a)
	st := f.d.Stats()
	if st.Edges != 1 {
		t.Errorf("edges = %d, want exactly 1 (a->b)", st.Edges)
	}
	if st.Nodes != 2 {
		t.Errorf("nodes = %d, want 2", st.Nodes)
	}
}

func TestCondWaitRemovesAndRestoresHeldEntry(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	waiter, prober := f.thread(t, "waiter"), f.thread(t, "prober")
	o := f.heap.New("Cond")

	f.d.Acquired(waiter, o)
	f.d.Acquired(waiter, o) // recursion depth 2
	f.d.CondWaitBegin(waiter, o)

	// While in wait the monitor is released: the waiter must not show
	// as a holder, or another thread blocking on o would fabricate a
	// wait-for edge at a thread that holds nothing.
	f.d.Blocked(prober, o, lockdep.WaitFat)
	if cycles := f.d.DetectWaitCycles(); len(cycles) != 0 {
		t.Fatalf("phantom wait-for cycle through a cond-waiting thread: %v", cycles)
	}
	waiters := f.d.WaitingThreads()
	var sawWaiter bool
	for _, w := range waiters {
		if strings.HasPrefix(w.Thread, "waiter#") {
			sawWaiter = true
			if w.Kind != "cond-wait" {
				t.Errorf("waiter kind = %q, want cond-wait", w.Kind)
			}
			if len(w.Holds) != 0 {
				t.Errorf("cond-waiting thread still shows holds: %+v", w.Holds)
			}
		}
	}
	if !sawWaiter {
		t.Fatalf("cond-waiting thread missing from wait-for snapshot: %+v", waiters)
	}

	f.d.Unblocked(prober)
	f.d.CondWaitEnd(waiter, o)
	// The entry is back at its saved recursion depth: two releases must
	// balance it exactly.
	f.d.Released(waiter, o)
	f.d.Released(waiter, o)
	if w := f.d.WaitingThreads(); len(w) != 0 {
		t.Errorf("wait state not cleared after CondWaitEnd: %+v", w)
	}
}

func TestWaitForCycleDetectionAndRevalidation(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "phil-a"), f.thread(t, "phil-b")
	a, b := f.heap.New("Fork"), f.heap.New("Fork")

	f.d.Acquired(t1, a)
	f.d.Acquired(t2, b)
	f.d.Blocked(t1, b, lockdep.WaitQueued)
	f.d.Blocked(t2, a, lockdep.WaitSpin)

	cycles := f.d.DetectWaitCycles()
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	c := cycles[0]
	if len(c.Threads) != 2 {
		t.Fatalf("cycle threads = %d, want 2", len(c.Threads))
	}
	s := c.String()
	for _, want := range []string{"wait-for cycle", "phil-a#", "phil-b#", "queued-park", "spin", "holds"} {
		if !strings.Contains(s, want) {
			t.Errorf("cycle report %q missing %q", s, want)
		}
	}

	// Resolve one leg: the cycle must disappear (revalidation aside,
	// the edge itself is gone from the snapshot).
	f.d.Unblocked(t2)
	if cycles := f.d.DetectWaitCycles(); len(cycles) != 0 {
		t.Fatalf("cycle survived after a waiter unblocked: %v", cycles)
	}

	// A repeated Blocked on the same object and kind must keep the
	// original episode (same sequence, same start), so stall timing
	// measures from the first report.
	before := f.d.WaitingThreads()
	f.d.Blocked(t1, b, lockdep.WaitQueued)
	after := f.d.WaitingThreads()
	if len(before) != 1 || len(after) != 1 {
		t.Fatalf("waiters before/after re-block = %d/%d, want 1/1", len(before), len(after))
	}
	if after[0].WaitNs < before[0].WaitNs {
		t.Errorf("re-blocking restarted the episode clock: %d -> %d ns", before[0].WaitNs, after[0].WaitNs)
	}
}

func TestFlightRecorderOrdersEvents(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	th := f.thread(t, "rec")
	a, b := f.heap.New("Obj"), f.heap.New("Obj")
	f.d.Acquired(th, a)
	f.d.Blocked(th, b, lockdep.WaitSpin)
	f.d.Acquired(th, b)
	f.d.Released(th, b)
	f.d.Released(th, a)

	evs := f.d.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5: %+v", len(evs), evs)
	}
	wantKinds := []string{"acquire", "blocked", "acquire", "release", "release"}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Errorf("events out of order: seq %d then %d", evs[i-1].Seq, ev.Seq)
		}
		if !strings.HasPrefix(ev.Thread, "rec#") {
			t.Errorf("event %d thread = %q, want rec#...", i, ev.Thread)
		}
	}
	if evs[1].Detail != "spin" {
		t.Errorf("blocked event detail = %q, want spin", evs[1].Detail)
	}
}

func TestWatchdogDumpsOnceAndNamesTheDeadlock(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "phil-a"), f.thread(t, "phil-b")
	a, b := f.heap.New("Fork"), f.heap.New("Fork")

	f.d.Acquired(t1, a)
	f.d.Acquired(t2, b)
	f.d.Blocked(t1, b, lockdep.WaitQueued)
	f.d.Blocked(t2, a, lockdep.WaitQueued)

	dumps := make(chan lockdep.StallDump, 4)
	w := f.d.StartWatchdog(lockdep.WatchdogOptions{
		Threshold: 30 * time.Millisecond,
		Interval:  10 * time.Millisecond,
		OnStall:   func(sd lockdep.StallDump) { dumps <- sd },
	})
	defer w.Stop()

	var dump lockdep.StallDump
	select {
	case dump = <-dumps:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a stalled wait")
	}
	if len(dump.Stalled) == 0 {
		t.Fatalf("dump has no stalled threads")
	}
	if len(dump.Cycles) != 1 {
		t.Fatalf("dump cycles = %d, want the deadlock named", len(dump.Cycles))
	}
	var text strings.Builder
	dump.WriteText(&text)
	for _, want := range []string{"stall dump", "phil-a#", "phil-b#", "wait-for cycle", "recent events"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("dump text missing %q:\n%s", want, text.String())
		}
	}

	// The same blocking episodes must not dump again.
	select {
	case <-dumps:
		t.Fatal("watchdog dumped the same stall twice")
	case <-time.After(100 * time.Millisecond):
	}
	if got := w.Dumps(); got != 1 {
		t.Errorf("dump count = %d, want 1", got)
	}
}

func TestExportsRenderGraphAndReport(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	t1, t2 := f.thread(t, "alpha"), f.thread(t, "beta")
	a, b := f.heap.New("Account"), f.heap.New("Account")
	lockPair(f.d, t1, a, b)
	lockPair(f.d, t2, b, a)

	ex := f.d.GraphJSON()
	if len(ex.Nodes) != 2 || len(ex.Edges) != 2 || len(ex.Inversions) != 1 {
		t.Fatalf("graph export = %d nodes / %d edges / %d inversions, want 2/2/1",
			len(ex.Nodes), len(ex.Edges), len(ex.Inversions))
	}
	for _, e := range ex.Edges {
		if !e.Inverted {
			t.Errorf("edge %s -> %s not marked inverted despite being in the cycle", e.From, e.To)
		}
	}

	var dot strings.Builder
	f.d.WriteDOT(&dot)
	for _, want := range []string{"digraph lockorder", a.String(), b.String(), `color="red"`} {
		if !strings.Contains(dot.String(), want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot.String())
		}
	}

	var rep strings.Builder
	f.d.WriteReport(&rep)
	if !strings.Contains(rep.String(), "lock-order inversion") {
		t.Errorf("text report missing the inversion:\n%s", rep.String())
	}

	if _, err := f.d.MarshalJSONReport(); err != nil {
		t.Errorf("JSON report: %v", err)
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	// Not parallel: owns the global registration.
	lockdep.Disable()
	if lockdep.Enabled() || lockdep.Active() != nil {
		t.Fatal("lockdep enabled at test start")
	}
	d := lockdep.Enable(lockdep.New(lockdep.Config{}))
	defer lockdep.Disable()
	if lockdep.Active() != d || !lockdep.Enabled() {
		t.Fatal("Enable did not install")
	}
	// Lock events must feed the installed instance.
	f := newFixture(t)
	th := f.thread(t, "glob")
	o := f.heap.New("Obj")
	lockevent.EmitValue(lockevent.Spin, th, o, int64(lockdep.WaitSpin))
	if got := len(d.WaitingThreads()); got != 1 {
		t.Fatalf("Spin event not recorded: waiters = %d", got)
	}
	lockevent.EmitValue(lockevent.Unblock, th, o, 0)
	if got := len(d.WaitingThreads()); got != 0 {
		t.Fatalf("Unblock event not recorded: waiters = %d", got)
	}
}

// TestVMSitesNameEdgesWithoutProfiler: with lockdep the only observer,
// the interpreter still publishes its frames, so the order edge of two
// nested synchronized blocks names the MiniJava method and the pcs of
// its monitorenters. Not parallel: owns the global registration.
func TestVMSitesNameEdgesWithoutProfiler(t *testing.T) {
	prog, err := minijava.Compile(`
class Guard {
    field x;
}
func nest(a: Guard, b: Guard) {
    synchronized (a) {
        synchronized (b) {
            return 1;
        }
    }
    return 0;
}
func main() {
    var a = new Guard;
    var b = new Guard;
    return nest(a, b);
}`)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, core.NewDefault(), object.NewHeap())
	if err != nil {
		t.Fatal(err)
	}
	th, err := threading.NewRegistry().Attach("main")
	if err != nil {
		t.Fatal(err)
	}
	d := lockdep.Enable(lockdep.New(lockdep.Config{}))
	defer lockdep.Disable()
	if _, err := machine.Run(th, "main"); err != nil {
		t.Fatal(err)
	}
	edges := d.GraphJSON().Edges
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want one", edges)
	}
	if e := edges[0]; e.HoldSite != "nest @3" || e.AcquireSite != "nest @7" {
		t.Errorf("edge sites = %q -> %q, want nest @3 -> nest @7", e.HoldSite, e.AcquireSite)
	}
}

// Concurrent hammering must not race, corrupt counters, or report a
// false inversion when every thread uses the same order (run with
// -race in CI's race job).
func TestConcurrentConsistentOrderIsClean(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	objs := []*object.Object{f.heap.New("X"), f.heap.New("X"), f.heap.New("X")}
	const workers = 8
	var done atomic.Int32
	for w := 0; w < workers; w++ {
		th := f.thread(t, "hammer")
		go func(th *threading.Thread) {
			defer done.Add(1)
			for i := 0; i < 500; i++ {
				for _, o := range objs {
					f.d.Acquired(th, o)
				}
				for j := len(objs) - 1; j >= 0; j-- {
					f.d.Released(th, objs[j])
				}
			}
		}(th)
	}
	for done.Load() != workers {
		time.Sleep(time.Millisecond)
	}
	st := f.d.Stats()
	if st.Inversions != 0 {
		t.Fatalf("false inversions under consistent concurrent order: %+v", st)
	}
	if st.Nodes != 3 {
		t.Errorf("nodes = %d, want 3", st.Nodes)
	}
}
