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

// The deflation corpus itself lives in deflation.go (DeflationCorpus),
// shared with `lockcheck -mutate deflate-*`; the tests here certify it
// against the oracle and prove it kills the seeded deflation mutations.

// compactImpls are the deflating configurations the corpus certifies:
// the compact extension itself, and compact over a 2-bit count so
// overflow-driven inflations deflate under recursive holds.
func compactImpls() []func() lockapi.Locker {
	return []func() lockapi.Locker{
		func() lockapi.Locker { return core.New(core.Options{RecycleMonitors: true}) },
		func() lockapi.Locker { return core.New(core.Options{RecycleMonitors: true, CountBits: 2}) },
	}
}

// TestCompactDeflationCorpus runs every deflation corpus program against
// both compact configurations under several schedule seeds, with the
// oracle on: zero divergences allowed.
func TestCompactDeflationCorpus(t *testing.T) {
	t.Parallel()
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for mi, mk := range compactImpls() {
		mi, mk := mi, mk
		t.Run(fmt.Sprintf("impl%d", mi), func(t *testing.T) {
			t.Parallel()
			for _, tc := range DeflationCorpus() {
				for seed := 0; seed < seeds; seed++ {
					cfg := Config{
						Schedule:     int64(seed),
						Timeout:      30 * time.Second,
						WaitTimeout:  2 * time.Millisecond,
						WorkDuration: time.Millisecond,
					}
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

// TestCompactScheduleCertification is the deflation-race acceptance
// gate, mirroring the biased certification: at least ten thousand
// distinct explored schedules across the deflation corpus, against the
// reference oracle, with zero divergences. Schedules are spread over
// both compact configurations with an oversubscribed worker pool;
// -short runs a 1/20 slice.
func TestCompactScheduleCertification(t *testing.T) {
	target := 10_000
	if testing.Short() {
		target = 500
	}
	mks := compactImpls()
	corpus := DeflationCorpus()

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

// corpusProgram fetches a deflation corpus entry by name.
func corpusProgram(t *testing.T, name string) Program {
	t.Helper()
	for _, tc := range DeflationCorpus() {
		if tc.Name == name {
			return tc.P
		}
	}
	t.Fatalf("deflation corpus has no program %q", name)
	return Program{}
}

// TestCheckerCatchesDeflateEpochSkip seeds the missing grace period
// (freed monitor indices recycle immediately, and the fat-lock lookup
// dwells on a stale header value without pinning). The bug needs a
// reader caught between its header load and the monitor lookup while
// the deflater frees the index and a second object's inflation reuses
// it — the corpus's stale-index-dwell program churns wait-driven
// inflate/deflate cycles across two objects while two readers hammer
// object 0, and the test retries schedule seeds. The phantom monitor
// surfaces as a mutual-exclusion violation, an illegal-state error
// (outcome divergence), or a reader stranded on another object's
// monitor (stuck).
func TestCheckerCatchesDeflateEpochSkip(t *testing.T) {
	t.Parallel()
	mutant := func() lockapi.Locker {
		return core.New(core.Options{
			RecycleMonitors: true,
			TestMutations:   core.Mutations{DeflateEpochSkip: true},
		})
	}
	clean := func() lockapi.Locker { return core.New(core.Options{RecycleMonitors: true}) }

	p := corpusProgram(t, "stale-index-dwell")
	cfg := Config{
		Timeout:      5 * time.Second,
		WaitTimeout:  2 * time.Millisecond,
		WorkDuration: time.Millisecond,
		SkipOracle:   true,
	}

	killTest(t, "DeflateEpochSkip", func() {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(clean, p, cfg); len(fs) != 0 {
				t.Fatalf("unmutated compact implementation failed (seed %d): %v", seed, fs)
			}
		}
	}, func() mutantVerdict {
		for seed := int64(0); seed < 30; seed++ {
			cfg.Schedule = seed
			fs := CheckProgram(mutant, p, cfg)
			for _, k := range []FailureKind{FailMutex, FailOutcome, FailStuck, FailLeak} {
				if SameKind(fs, k) {
					return mutantVerdict{Caught: true, Seed: seed, Detail: fmt.Sprint(fs)}
				}
			}
		}
		return mutantVerdict{Detail: "no seed reported a divergence"}
	})
}

// TestCheckerCatchesDeflateQueueIgnore seeds the dropped entry queue
// (deflation retires a monitor without checking for queued contenders).
// The program parks a notified waiter on the entry queue while the
// notifier still holds: the notifier's final unlock then deflates over
// the queued thread, which sleeps forever — a stuck schedule. The park
// is timing dependent (the waiter must re-enter while the notifier
// holds), so the notifier holds across two work ops and the test
// retries schedule seeds.
func TestCheckerCatchesDeflateQueueIgnore(t *testing.T) {
	t.Parallel()
	mutant := func() lockapi.Locker {
		return core.New(core.Options{
			RecycleMonitors: true,
			TestMutations:   core.Mutations{DeflateQueueIgnore: true},
		})
	}
	clean := func() lockapi.Locker { return core.New(core.Options{RecycleMonitors: true}) }

	p := Program{
		Objects: 1,
		Threads: [][]Op{
			{{OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}},
			{{Kind: OpWork}, {OpLock, 0}, {OpNotify, 0}, {Kind: OpWork}, {Kind: OpWork}, {OpUnlock, 0}},
		},
	}
	cfg := Config{
		Timeout:      1500 * time.Millisecond,
		WaitTimeout:  50 * time.Millisecond,
		WorkDuration: 5 * time.Millisecond,
		SkipOracle:   true,
	}

	killTest(t, "DeflateQueueIgnore", func() {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Schedule = seed
			if fs := CheckProgram(clean, p, cfg); len(fs) != 0 {
				t.Fatalf("unmutated compact implementation failed (seed %d): %v", seed, fs)
			}
		}
	}, func() mutantVerdict {
		for seed := int64(0); seed < 10; seed++ {
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
		return mutantVerdict{Detail: "no seed reported the stranded contender as a stuck schedule"}
	})
}
