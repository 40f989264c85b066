package check

import (
	"fmt"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockapi"
)

// These tests are the checker's proof of usefulness: each seeded
// mutation from core.Mutations plants a realistic protocol bug, and the
// checker must catch it (and print a minimized failing schedule), while
// the unmutated implementation must pass the identical program. A
// harness that cannot fail detects nothing.

// TestCheckerCatchesOverflowOffByOne seeds the overflow-inflation
// off-by-one (the fat monitor is born one recursion level short) into a
// thin lock with a 2-bit count, so five nested locks overflow. The bug
// surfaces as outcome divergence: the object unlocks one level early,
// so a later unlock that must succeed returns ErrIllegalMonitorState.
func TestCheckerCatchesOverflowOffByOne(t *testing.T) {
	t.Parallel()
	mutant := func() lockapi.Locker {
		return core.New(core.Options{
			CountBits:     2,
			TestMutations: core.Mutations{OverflowOffByOne: true},
		})
	}
	clean := func() lockapi.Locker { return core.New(core.Options{CountBits: 2}) }

	p := OverflowProgram().P
	cfg := Config{Timeout: 10 * time.Second}

	killTest(t, "OverflowOffByOne", func() {
		if fs := CheckProgram(clean, p, cfg); len(fs) != 0 {
			t.Fatalf("unmutated implementation failed the overflow program: %v", fs)
		}
	}, func() mutantVerdict {
		fs := CheckProgram(mutant, p, cfg)
		if !SameKind(fs, FailOutcome) {
			return mutantVerdict{Detail: fmt.Sprint(fs)}
		}
		min := Minimize(p, func(q Program) bool {
			return SameKind(CheckProgram(mutant, q, cfg), FailOutcome)
		})
		if !SameKind(CheckProgram(mutant, min, cfg), FailOutcome) {
			return mutantVerdict{Detail: fmt.Sprintf("minimized program no longer fails:\n%s", min)}
		}
		return mutantVerdict{Caught: true, Detail: fmt.Sprintf("%v\nminimized failing schedule:\n%s", fs, min)}
	})
}

// TestCheckerCatchesDropQueuedWake seeds the lost-wakeup bug (a compact
// monitor's final unlock skips the flc wake of the lot's entry parkers)
// and kills it with the lot corpus, as `lockcheck -mutate dropwake`
// does. In notify-vs-release the notifier relabels the waiter as an
// entry parker, and its final unlock then owes the waiter a wake it
// never delivers: the waiter sleeps forever, which the watchdog
// reports as a stuck schedule.
func TestCheckerCatchesDropQueuedWake(t *testing.T) {
	t.Parallel()
	killLotMutant(t, "DropQueuedWake", "notify-vs-release", core.Mutations{DropQueuedWake: true})
}
