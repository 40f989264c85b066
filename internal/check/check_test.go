package check

import (
	"math/rand"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/locktrace"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// testConfig is the schedule configuration the differential tests run
// under: short waits and work keep wall-clock time down without
// shrinking the race windows to nothing.
func testConfig(seed int64) Config {
	return Config{
		Schedule:     seed,
		Timeout:      30 * time.Second,
		WaitTimeout:  2 * time.Millisecond,
		WorkDuration: time.Millisecond,
	}
}

// TestGeneratorDiscipline replays the generator's own legality argument
// against its output: deadlock freedom rests on ordered acquisition and
// on waits happening only while a single object is held, so violating
// either would invalidate every other test in this package.
func TestGeneratorDiscipline(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Generate(rng, 4, 3, 40)
		if got := len(p.Threads); got != 4 {
			t.Fatalf("seed %d: %d threads, want 4", seed, got)
		}
		for ti, ops := range p.Threads {
			if len(ops) != 40 {
				t.Fatalf("seed %d: t%d has %d ops, want 40", seed, ti+1, len(ops))
			}
			depth := make([]int, p.Objects)
			for i, op := range ops {
				held, maxHeld := 0, -1
				for o, d := range depth {
					if d > 0 {
						held++
						maxHeld = o
					}
				}
				switch op.Kind {
				case OpLock:
					if depth[op.Obj] == 0 && op.Obj < maxHeld {
						t.Fatalf("seed %d: t%d op %d acquires obj %d below held obj %d (unordered acquisition)",
							seed, ti+1, i, op.Obj, maxHeld)
					}
					depth[op.Obj]++
				case OpUnlock:
					if depth[op.Obj] > 0 {
						depth[op.Obj]--
					}
				case OpWait:
					if depth[op.Obj] > 0 && held != 1 {
						t.Fatalf("seed %d: t%d op %d waits on obj %d while holding %d objects",
							seed, ti+1, i, op.Obj, held)
					}
				}
			}
		}
	}
}

// TestExpected pins the static outcome computation on a handcrafted
// program covering every op kind's legal and illegal form.
func TestExpected(t *testing.T) {
	t.Parallel()
	p := Program{
		Objects: 2,
		Threads: [][]Op{
			{
				{OpUnlock, 0},    // illegal: nothing held
				{OpLock, 0},      // ok
				{OpLock, 0},      // ok (nested)
				{OpWait, 1},      // illegal: obj 1 not held
				{OpWait, 0},      // ok
				{OpNotify, 0},    // ok
				{OpNotifyAll, 1}, // illegal
				{OpUnlock, 0},    // ok
				{OpUnlock, 0},    // ok (final)
				{OpNotify, 0},    // illegal: released
				{Kind: OpWork},   // ok
			},
		},
	}
	want := []bool{false, true, true, false, true, true, false, true, true, false, true}
	got := Expected(p)[0]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d (%s): Expected = %v, want %v", i, p.Threads[0][i], got[i], want[i])
		}
	}
}

// TestDifferentialAllImplementations is the tentpole stress test: every
// registered implementation runs the same generated programs, under
// varied shapes (wide, deeply nested, high-contention single object),
// and must produce zero invariant violations and oracle-identical
// outcomes. A failure minimizes the program before reporting so the log
// carries an actionable schedule.
func TestDifferentialAllImplementations(t *testing.T) {
	shapes := []struct{ threads, objects, ops int }{
		{2, 1, 12},
		{4, 3, 25},
		{6, 1, 30},
		{3, 2, 40},
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	impls := Implementations()
	for _, name := range ImplementationNames() {
		name := name
		mk := impls[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < rounds; r++ {
				shape := shapes[r%len(shapes)]
				rng := rand.New(rand.NewSource(int64(r)*1000 + 17))
				p := Generate(rng, shape.threads, shape.objects, shape.ops)
				cfg := testConfig(int64(r))
				fs := CheckProgram(mk, p, cfg)
				if len(fs) == 0 {
					continue
				}
				min := Minimize(p, func(q Program) bool {
					return SameKind(CheckProgram(mk, q, cfg), fs[0].Kind)
				})
				t.Fatalf("round %d: %s violated invariants:\n  %v\nprogram:\n%sminimized:\n%s",
					r, name, fs, p, min)
			}
		})
	}
}

// TestMinimizeShrinksToEssentialOp drives the minimizer with a synthetic
// failure predicate (the program contains unlock(1)) and checks it
// shrinks a 3-thread, multi-op program down to that single op.
func TestMinimizeShrinksToEssentialOp(t *testing.T) {
	t.Parallel()
	p := Program{
		Objects: 2,
		Threads: [][]Op{
			{{OpLock, 0}, {OpLock, 0}, {OpUnlock, 0}, {OpUnlock, 0}, {Kind: OpWork}},
			{{OpLock, 1}, {OpUnlock, 1}, {OpNotify, 0}, {OpWait, 1}},
			{{OpUnlock, 1}, {OpLock, 0}, {OpUnlock, 0}},
		},
	}
	hasEssential := func(q Program) bool {
		for _, ops := range q.Threads {
			for _, op := range ops {
				if op.Kind == OpUnlock && op.Obj == 1 {
					return true
				}
			}
		}
		return false
	}
	min := Minimize(p, hasEssential)
	if min.NumOps() != 1 || !hasEssential(min) {
		t.Fatalf("Minimize left %d ops (want 1 essential op):\n%s", min.NumOps(), min)
	}
}

// TestCheckHistory pins the trace-invariant checker on synthetic event
// sequences: over-release, wait at depth zero, and a clean balanced run.
func TestCheckHistory(t *testing.T) {
	t.Parallel()
	over := []locktrace.Event{
		{Seq: 1, Kind: locktrace.EvAcquire, Thread: 1, Object: 7},
		{Seq: 2, Kind: locktrace.EvRelease, Thread: 1, Object: 7},
		{Seq: 3, Kind: locktrace.EvRelease, Thread: 1, Object: 7},
	}
	if fs := checkHistory(over); !SameKind(fs, FailHistory) {
		t.Errorf("over-release not flagged: %v", fs)
	}
	waitAtZero := []locktrace.Event{
		{Seq: 1, Kind: locktrace.EvWait, Thread: 2, Object: 9},
	}
	if fs := checkHistory(waitAtZero); !SameKind(fs, FailHistory) {
		t.Errorf("wait at depth zero not flagged: %v", fs)
	}
	clean := []locktrace.Event{
		{Seq: 1, Kind: locktrace.EvAcquire, Thread: 1, Object: 7},
		{Seq: 2, Kind: locktrace.EvAcquire, Thread: 1, Object: 7},
		{Seq: 3, Kind: locktrace.EvWait, Thread: 1, Object: 7},
		{Seq: 4, Kind: locktrace.EvRelease, Thread: 1, Object: 7},
		{Seq: 5, Kind: locktrace.EvRelease, Thread: 1, Object: 7},
		{Seq: 6, Kind: locktrace.EvRelease, Thread: 1, Object: 7, Failed: true},
	}
	if fs := checkHistory(clean); len(fs) != 0 {
		t.Errorf("clean history flagged: %v", fs)
	}
}

// TestQuiescenceDetectsHeldLock proves the leak checker has teeth: an
// object left thin-locked after a run must be reported.
func TestQuiescenceDetectsHeldLock(t *testing.T) {
	t.Parallel()
	impl := core.NewDefault()
	reg := threading.NewRegistry()
	th, err := reg.Attach("leaky")
	if err != nil {
		t.Fatal(err)
	}
	heap := object.NewHeap()
	held, free := heap.New("chk"), heap.New("chk")
	impl.Lock(th, held)
	fs := checkQuiescence(impl, []*object.Object{held, free})
	if !SameKind(fs, FailLeak) {
		t.Fatalf("held lock not reported as leak: %v", fs)
	}
	if err := impl.Unlock(th, held); err != nil {
		t.Fatal(err)
	}
	if fs := checkQuiescence(impl, []*object.Object{held, free}); len(fs) != 0 {
		t.Fatalf("quiescent state flagged: %v", fs)
	}
}
