package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/biased"
	"thinlock/internal/lockapi"
)

// revocationPrograms is the corpus of hand-written schedules that aim
// interleavings straight at the revocation protocol: a contender
// arriving while a reservation is held, wait-driven self-revocation
// racing a revoker, and multi-object churn that drives the bulk-rebias
// transfer path. The generated-program stress test finds these shapes
// eventually; the corpus makes every run hit them.
func revocationPrograms() []struct {
	name string
	p    Program
} {
	return []struct {
		name string
		p    Program
	}{
		{
			// The reserver holds across work ops while a second thread
			// revokes mid-hold; the walked word must carry the exact
			// depth, then hand over.
			name: "revoke-held-reservation",
			p: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {OpLock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{Kind: OpWork}, {OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
			}},
		},
		{
			// Wait forces the owner's self-revocation to a fat lock while
			// a second thread contends and notifies: the revoke-for-wait
			// and revoke-for-contention paths race on one object.
			name: "wait-revoke-races-contender",
			p: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{OpLock, 0}, {OpNotify, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpNotifyAll, 0}, {OpUnlock, 0}},
			}},
		},
		{
			// Owner churn across two objects of one class: revocation
			// after revocation bumps the class epoch, so later contenders
			// exercise stale-reservation transfer instead of plain
			// revocation (under the default rebiasing configuration).
			name: "class-churn-rebias",
			p: Program{Objects: 2, Threads: [][]Op{
				{{OpLock, 0}, {OpUnlock, 0}, {OpLock, 1}, {OpUnlock, 1}, {OpLock, 0}, {OpUnlock, 0}},
				{{OpLock, 1}, {OpUnlock, 1}, {OpLock, 0}, {OpUnlock, 0}, {OpLock, 1}, {OpUnlock, 1}},
				{{Kind: OpWork}, {OpLock, 0}, {OpLock, 0}, {OpUnlock, 0}, {OpUnlock, 0}, {OpLock, 1}, {OpUnlock, 1}},
			}},
		},
		{
			// Deep nesting while a second thread's wait inflates the same
			// object: nested reacquires race the wait-driven revocation.
			name: "deep-nesting-vs-wait",
			p:    deepNestingProgram(10),
		},
	}
}

// deepNestingProgram nests one thread depth levels deep on an object a
// second thread waits on and notifies.
func deepNestingProgram(depth int) Program {
	var deep []Op
	for i := 0; i < depth; i++ {
		deep = append(deep, Op{OpLock, 0})
	}
	deep = append(deep, Op{Kind: OpWork}, Op{OpNotify, 0})
	for i := 0; i < depth; i++ {
		deep = append(deep, Op{OpUnlock, 0})
	}
	return Program{Objects: 1, Threads: [][]Op{
		deep,
		{{Kind: OpWork}, {OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}},
	}}
}

// TestBiasedRevocationCorpus runs every corpus program against both
// biased configurations under several schedule seeds, with the oracle
// on: zero divergences allowed.
func TestBiasedRevocationCorpus(t *testing.T) {
	impls := map[string]func() lockapi.Locker{
		"Biased":          func() lockapi.Locker { return biased.NewDefault() },
		"Biased-norebias": func() lockapi.Locker { return biased.New(biased.Options{DisableRebias: true}) },
		// Aggressive thresholds reach bulk rebias and bulk revoke within
		// the corpus's handful of revocations.
		"Biased-hair-trigger": func() lockapi.Locker {
			return biased.New(biased.Options{EpochBits: 1, RebiasThreshold: 1, RevokeThreshold: 2})
		},
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for name, mk := range impls {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, tc := range revocationPrograms() {
				for seed := 0; seed < seeds; seed++ {
					cfg := Config{
						Schedule:     int64(seed),
						Timeout:      30 * time.Second,
						WaitTimeout:  2 * time.Millisecond,
						WorkDuration: time.Millisecond,
					}
					if fs := CheckProgram(mk, tc.p, cfg); len(fs) != 0 {
						min := Minimize(tc.p, func(q Program) bool {
							return SameKind(CheckProgram(mk, q, cfg), fs[0].Kind)
						})
						t.Fatalf("%s seed %d: %v\nminimized:\n%s", tc.name, seed, fs, min)
					}
				}
			}
		})
	}
}

// TestBiasedScheduleCertification is the acceptance gate: at least ten
// thousand distinct explored schedules across the revocation corpus and
// generated programs, against the reference oracle, with zero
// divergences. Schedules are spread over both biased configurations and
// run with an aggressive worker pool to keep wall-clock bounded; -short
// runs a 1/20 slice.
func TestBiasedScheduleCertification(t *testing.T) {
	target := 10_000
	if testing.Short() {
		target = 500
	}
	mks := []func() lockapi.Locker{
		func() lockapi.Locker { return biased.NewDefault() },
		func() lockapi.Locker { return biased.New(biased.Options{DisableRebias: true}) },
	}
	corpus := revocationPrograms()

	type job struct {
		p    Program
		mk   func() lockapi.Locker
		seed int64
		desc string
	}
	jobs := make(chan job, 64)
	var ran atomic.Int64
	var mu sync.Mutex
	var firstFail string

	// Each run is latency-bound (schedule jitter and wait timeouts, not
	// CPU), so the pool oversubscribes the processors heavily.
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers > 32 {
		workers = 32
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cfg := Config{
					Schedule:    j.seed,
					Timeout:     30 * time.Second,
					WaitTimeout: time.Millisecond,
				}
				if fs := CheckProgram(j.mk, j.p, cfg); len(fs) != 0 {
					mu.Lock()
					if firstFail == "" {
						firstFail = fmt.Sprintf("%s seed %d: %v\nprogram:\n%s", j.desc, j.seed, fs, j.p)
					}
					mu.Unlock()
				}
				ran.Add(1)
			}
		}()
	}

	seed := int64(0)
	for n := 0; n < target; {
		for ci, tc := range corpus {
			for mi, mk := range mks {
				if n >= target {
					break
				}
				mu.Lock()
				failed := firstFail != ""
				mu.Unlock()
				if failed {
					n = target
					break
				}
				jobs <- job{p: tc.p, mk: mk, seed: seed, desc: fmt.Sprintf("corpus[%d] impl[%d] %s", ci, mi, tc.name)}
				n++
			}
		}
		seed++
	}
	close(jobs)
	wg.Wait()

	if firstFail != "" {
		t.Fatal(firstFail)
	}
	if got := ran.Load(); got < int64(target) {
		t.Fatalf("explored %d schedules, want ≥ %d", got, target)
	}
	t.Logf("certified %d explored schedules with zero divergences", ran.Load())
}

// TestCheckerCatchesRevokeOffByOne seeds the revocation walker's
// depth/count conversion bug (the walked thin word carries one phantom
// recursion level) and proves the differential checker reports it. The
// divergence needs a revocation to happen while the reserver still has
// unlocks left, so the reserver holds across work ops and the test
// retries schedule seeds; the bug surfaces as an outcome divergence (an
// unlock that must be illegal succeeds against the phantom level) or as
// the contender stuck behind a phantom holder.
func TestCheckerCatchesRevokeOffByOne(t *testing.T) {
	t.Parallel()
	mutant := func() lockapi.Locker {
		return biased.New(biased.Options{
			DisableRebias: true,
			TestMutations: biased.Mutations{RevokeOffByOne: true},
		})
	}
	clean := func() lockapi.Locker { return biased.New(biased.Options{DisableRebias: true}) }

	p := Program{
		Objects: 1,
		Threads: [][]Op{
			{{OpLock, 0}, {Kind: OpWork}, {Kind: OpWork}, {OpUnlock, 0}, {OpUnlock, 0}},
			{{Kind: OpWork}, {OpLock, 0}, {OpUnlock, 0}},
		},
	}
	cfg := Config{
		Timeout:      1500 * time.Millisecond,
		WorkDuration: 5 * time.Millisecond,
		SkipOracle:   true,
	}

	killTest(t, "RevokeOffByOne", func() {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(clean, p, cfg); len(fs) != 0 {
				t.Fatalf("unmutated biased implementation failed (seed %d): %v", seed, fs)
			}
		}
	}, func() mutantVerdict {
		diverges := func(fs []Failure) bool { return SameKind(fs, FailOutcome) || SameKind(fs, FailStuck) }
		for seed := int64(0); seed < 10; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(mutant, p, cfg); diverges(fs) {
				min := Minimize(p, func(q Program) bool {
					c := cfg
					c.Schedule = seed
					return diverges(CheckProgram(mutant, q, c))
				})
				return mutantVerdict{Caught: true, Seed: seed,
					Detail: fmt.Sprintf("%v\nminimized failing schedule:\n%s", fs, min)}
			}
		}
		return mutantVerdict{Detail: "no seed reported a divergence"}
	})
}

// TestCheckerCatchesSkipOwnerValidation seeds the broken Dekker
// handshake (the owner's fast path trusts its bias slot without
// re-validating the header) and proves the checker reports it. An owner
// that keeps operating through a revoked reservation updates only its
// private slot, so its releases never reach the shared word: the
// contender spins forever behind the walked thin word (a stuck
// schedule), or the phantom hold surfaces as a leak or lost update. The
// revocation must land while the owner still has operations in flight,
// so the program interleaves repeated reacquires with the contender and
// the test retries seeds.
func TestCheckerCatchesSkipOwnerValidation(t *testing.T) {
	t.Parallel()
	mutant := func() lockapi.Locker {
		return biased.New(biased.Options{
			DisableRebias: true,
			TestMutations: biased.Mutations{SkipOwnerValidation: true},
		})
	}
	clean := func() lockapi.Locker { return biased.New(biased.Options{DisableRebias: true}) }

	p := Program{
		Objects: 1,
		Threads: [][]Op{
			{{OpLock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {OpLock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
			{{Kind: OpWork}, {OpLock, 0}, {Kind: OpWork}, {OpUnlock, 0}},
		},
	}
	cfg := Config{
		Timeout:      1500 * time.Millisecond,
		WorkDuration: 3 * time.Millisecond,
		SkipOracle:   true,
	}

	killTest(t, "SkipOwnerValidation", func() {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(clean, p, cfg); len(fs) != 0 {
				t.Fatalf("unmutated biased implementation failed (seed %d): %v", seed, fs)
			}
		}
	}, func() mutantVerdict {
		for seed := int64(0); seed < 10; seed++ {
			cfg.Schedule = seed
			fs := CheckProgram(mutant, p, cfg)
			for _, k := range []FailureKind{FailStuck, FailMutex, FailLeak, FailOutcome} {
				if SameKind(fs, k) {
					return mutantVerdict{Caught: true, Seed: seed, Detail: fmt.Sprint(fs)}
				}
			}
		}
		return mutantVerdict{Detail: "no seed reported a divergence"}
	})
}
