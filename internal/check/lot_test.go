package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockapi"
)

// The lot corpus itself lives in lot.go (LotCorpus), shared with
// `lockcheck -mutate lot-*`; the tests here certify it against the
// oracle and prove it kills the seeded lot mutations.

// compactImpls are the compact-monitor configurations the corpus
// certifies: the default, and a 2-bit count field so the nested wait
// moves levels through the side count.
func compactImpls() []func() lockapi.Locker {
	return []func() lockapi.Locker{
		func() lockapi.Locker { return core.New(core.Options{Compact: true}) },
		func() lockapi.Locker { return core.New(core.Options{Compact: true, CountBits: 2}) },
	}
}

// TestCompactLotCorpus runs every lot corpus program against both
// compact configurations under several schedule seeds, with the oracle
// on: zero divergences allowed.
func TestCompactLotCorpus(t *testing.T) {
	t.Parallel()
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for mi, mk := range compactImpls() {
		mi, mk := mi, mk
		t.Run(fmt.Sprintf("impl%d", mi), func(t *testing.T) {
			t.Parallel()
			for _, tc := range LotCorpus() {
				for seed := 0; seed < seeds; seed++ {
					cfg := LotCorpusConfig(int64(seed), 30*time.Second)
					if fs := CheckProgram(mk, tc.P, cfg); len(fs) != 0 {
						min := Minimize(tc.P, func(q Program) bool {
							return SameKind(CheckProgram(mk, q, cfg), fs[0].Kind)
						})
						t.Fatalf("%s seed %d: %v\nminimized:\n%s", tc.Name, seed, fs, min)
					}
				}
			}
		})
	}
}

// TestCompactScheduleCertification is the compact-monitor acceptance
// gate, mirroring the biased certification: at least ten thousand
// distinct explored schedules across the lot corpus, against the
// reference oracle, with zero divergences. Schedules are spread over
// both compact configurations with an oversubscribed worker pool;
// -short runs a 1/20 slice.
func TestCompactScheduleCertification(t *testing.T) {
	target := 10_000
	if testing.Short() {
		target = 500
	}
	mks := compactImpls()
	corpus := LotCorpus()

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
				jobs <- job{p: tc.P, mk: mk, seed: seed, desc: fmt.Sprintf("corpus[%d] impl[%d] %s", ci, mi, tc.Name)}
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

// corpusProgram fetches a lot corpus entry by name.
func corpusProgram(t *testing.T, name string) Program {
	t.Helper()
	for _, tc := range LotCorpus() {
		if tc.Name == name {
			return tc.P
		}
	}
	t.Fatalf("lot corpus has no program %q", name)
	return Program{}
}

// killLotMutant is the kill test of a lot mutation: the clean compact
// implementation must pass the named corpus program at schedule seeds
// 0-3, and the mutant must leave one of them stuck. The corpus programs
// are already minimal, so a stuck probe, which costs a full watchdog
// timeout, is not minimized.
func killLotMutant(t *testing.T, name, program string, mut core.Mutations) {
	mutant := func() lockapi.Locker {
		return core.New(core.Options{Compact: true, TestMutations: mut})
	}
	clean := func() lockapi.Locker { return core.New(core.Options{Compact: true}) }
	p := corpusProgram(t, program)
	killTest(t, name, func() {
		for seed := int64(0); seed < 4; seed++ {
			if fs := CheckProgram(clean, p, LotCorpusConfig(seed, 5*time.Second)); len(fs) != 0 {
				t.Fatalf("unmutated compact implementation failed %s (seed %d): %v", program, seed, fs)
			}
		}
	}, func() mutantVerdict {
		for seed := int64(0); seed < 4; seed++ {
			cfg := LotCorpusConfig(seed, 1500*time.Millisecond)
			cfg.SkipOracle = true
			if fs := CheckProgram(mutant, p, cfg); SameKind(fs, FailStuck) {
				return mutantVerdict{Caught: true, Seed: seed, Detail: fmt.Sprint(fs)}
			}
		}
		return mutantVerdict{Detail: "no seed reported a stuck schedule"}
	})
}

// TestCheckerCatchesLotSkipValidate seeds the missing park validation:
// a contender parks on the lot without re-reading the lock word and the
// flc bit under the bucket lock. In contend-repark the loser of a wake
// parks again just as the winner's short hold ends; the winner's
// release wakes nobody, and the loser sleeps on a free lock.
func TestCheckerCatchesLotSkipValidate(t *testing.T) {
	t.Parallel()
	killLotMutant(t, "LotSkipValidate", "contend-repark", core.Mutations{LotSkipValidate: true})
}

// TestCheckerCatchesLotDropWake seeds the dropped notify wake: Notify
// relabels its waiter but does not set flc, so the notifier's final
// unlock skips the wake the relabeled waiter is owed, and the waiter,
// notified, sleeps on past its timeout.
func TestCheckerCatchesLotDropWake(t *testing.T) {
	t.Parallel()
	killLotMutant(t, "LotDropWake", "notify-owed-wake", core.Mutations{LotDropWake: true})
}
