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

// TestCheckerCatchesDropQueuedWake seeds the lost-wakeup bug (the
// releasing owner skips the queued-contender wake of the Tasuki
// protocol) into the queued-inflation variant. A contender that parked
// during the owner's critical section then sleeps forever, which the
// watchdog reports as a stuck schedule. The park is timing dependent
// (the contender must arrive while the lock is held), so the test holds
// the lock across two work ops and retries a few schedule seeds.
func TestCheckerCatchesDropQueuedWake(t *testing.T) {
	t.Parallel()
	mutant := func() lockapi.Locker {
		return core.New(core.Options{
			QueuedInflation: true,
			TestMutations:   core.Mutations{DropQueuedWake: true},
		})
	}
	clean := func() lockapi.Locker { return core.New(core.Options{QueuedInflation: true}) }

	p := Program{
		Objects: 1,
		Threads: [][]Op{
			{{OpLock, 0}, {Kind: OpWork}, {Kind: OpWork}, {OpUnlock, 0}},
			{{OpLock, 0}, {OpUnlock, 0}},
		},
	}
	cfg := Config{
		Timeout:      1500 * time.Millisecond,
		WorkDuration: 5 * time.Millisecond,
		SkipOracle:   true,
	}

	killTest(t, "DropQueuedWake", func() {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(clean, p, cfg); len(fs) != 0 {
				t.Fatalf("unmutated queued implementation failed (seed %d): %v", seed, fs)
			}
		}
	}, func() mutantVerdict {
		for seed := int64(0); seed < 8; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(mutant, p, cfg); SameKind(fs, FailStuck) {
				min := Minimize(p, func(q Program) bool {
					c := cfg
					c.Schedule = seed
					return SameKind(CheckProgram(mutant, q, c), FailStuck)
				})
				return mutantVerdict{Caught: true, Seed: seed,
					Detail: fmt.Sprintf("%v\nminimized failing schedule:\n%s", fs, min)}
			}
		}
		return mutantVerdict{Detail: "no seed reported the dropped wakeup as a stuck schedule"}
	})
}
