package check

import (
	"math/rand"
	"testing"

	"thinlock/internal/core"
	"thinlock/internal/jcl"
	"thinlock/internal/lockapi/conformance"
	"thinlock/internal/lockdep"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/workloads"
)

// TestLockdepHasNoFalsePositives is the watchdog's soundness gate: with
// lockdep globally enabled, the full conformance suite and differential
// rounds across every registered implementation must complete with zero
// lock-order inversions and zero wait-for cycles. The differential
// generator acquires objects in index order by construction (see
// TestGeneratorDiscipline), so any report here is lockdep inventing a
// deadlock that cannot happen.
//
// Not parallel at top level: it owns the global lockdep registration.
// The inner t.Run groups let their parallel subtests finish before the
// final assertions run (an enclosing Run does not return until its
// parallel descendants complete).
func TestLockdepHasNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("certification run; skipped in -short")
	}
	d := lockdep.Enable(lockdep.New())
	defer lockdep.Disable()

	impls := Implementations()

	t.Run("conformance", func(t *testing.T) {
		for _, name := range ImplementationNames() {
			name := name
			mk := impls[name]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				conformance.Run(t, mk)
			})
		}
	})

	t.Run("differential", func(t *testing.T) {
		shapes := []struct{ threads, objects, ops int }{
			{2, 1, 12},
			{4, 3, 25},
			{3, 2, 40},
		}
		for _, name := range ImplementationNames() {
			name := name
			mk := impls[name]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for r := 0; r < 4; r++ {
					shape := shapes[r%len(shapes)]
					rng := rand.New(rand.NewSource(int64(r)*271 + 31))
					p := Generate(rng, shape.threads, shape.objects, shape.ops)
					if fs := CheckProgram(mk, p, testConfig(int64(r))); len(fs) != 0 {
						t.Fatalf("round %d: %s violated invariants under lockdep:\n  %v", r, name, fs)
					}
				}
			})
		}
	})

	// The churn workload drives compact monitors' whole lot protocol —
	// contention parks, filed waiters, notify relabels and entry wakes —
	// under lockdep; its per-generation barriers are deadlock-free by
	// construction, so any inversion or cycle reported here is a false
	// positive.
	t.Run("workload", func(t *testing.T) {
		w, ok := workloads.ByName("churn")
		if !ok {
			t.Fatal("churn workload not registered")
		}
		l := core.New(core.Options{Compact: true})
		ctx := jcl.NewContext(l, object.NewHeap())
		reg := threading.NewRegistry()
		th, err := reg.Attach("lockdep-churn")
		if err != nil {
			t.Fatal(err)
		}
		if sum := w.Run(ctx, th, 4); sum == 0 {
			t.Fatal("churn checksum is zero; workload may be degenerate")
		}
		if l.Stats().FLCWakeups == 0 {
			t.Fatal("churn woke no parked thread; the lot protocol was not exercised")
		}
	})

	st := d.Stats()
	if st.Inversions != 0 {
		t.Errorf("lockdep reported %d inversions on deadlock-free suites (false positives):", st.Inversions)
		for _, r := range d.Inversions() {
			t.Errorf("\n%v", r)
		}
	}
	if cycles := d.DetectWaitCycles(); len(cycles) != 0 {
		t.Errorf("lockdep reports live wait-for cycles after all suites drained: %v", cycles)
	}
	if st.Events == 0 {
		t.Error("lockdep observed no events — hooks not wired through the checker?")
	}
}
