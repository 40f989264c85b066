// Command lockcheck runs the concurrent differential checker from
// internal/check: it generates schedule-perturbed multi-threaded
// lock/unlock/wait/notify programs, executes them under the selected
// lock implementations, validates mutual exclusion, nesting balance,
// oracle agreement and monitor-table quiescence, and on failure prints
// a delta-debugged minimal program before exiting nonzero.
//
// Usage:
//
//	lockcheck [-impl all|name,name] [-threads N] [-objects N] [-ops N]
//	          [-rounds N] [-seed N] [-timeout D]
//	          [-mutate overflow|dropwake|biasdepth|biasdekker|lot-validate|lot-dropwake]
//	          [-explore]
//
// The implementation names accepted by -impl are exactly
// check.ImplementationNames() — the -impl flag's help text lists them,
// so `lockcheck -help` is always current.
//
// -explore switches to the small-scope exhaustive mode, model checking
// every interleaving of tiny lock/unlock programs against the abstract
// lock-word state machine for every implementation variant.
//
// -mutate seeds a known protocol bug — into a thin-lock instance
// (overflow), a biased-locking instance (biasdepth, biasdekker) or a
// compact-monitor instance (dropwake, lot-validate, lot-dropwake) — and
// checks that instead, demonstrating (in a few seconds) that the
// checker actually detects broken lock protocols; these runs are
// expected to FAIL. The compact mutations first run the hand-written
// lot corpus (check.LotCorpus), and overflow first runs
// check.OverflowProgram; each exposes its mutation at schedule seed 0.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"thinlock/internal/biased"
	"thinlock/internal/check"
	"thinlock/internal/core"
	"thinlock/internal/lockapi"
)

func main() {
	impl := flag.String("impl", "all", implFlagUsage())
	threads := flag.Int("threads", 4, "threads per generated program")
	objects := flag.Int("objects", 3, "objects per generated program")
	ops := flag.Int("ops", 30, "operations per thread")
	rounds := flag.Int("rounds", 20, "programs to generate per implementation")
	seed := flag.Int64("seed", 1, "base seed for program generation and schedule jitter")
	timeout := flag.Duration("timeout", 20*time.Second, "per-run watchdog bound")
	mutate := flag.String("mutate", "", "seed a known bug and check it: overflow | dropwake | biasdepth | biasdekker | lot-validate | lot-dropwake")
	explore := flag.Bool("explore", false, "exhaustively model check all interleavings of tiny programs")
	flag.Parse()

	if *threads < 1 || *objects < 1 || *ops < 1 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "lockcheck: -threads, -objects, -ops and -rounds must all be >= 1")
		os.Exit(2)
	}

	if *explore {
		os.Exit(runExplore())
	}

	if *mutate == "overflow" {
		// The overflow bug needs deep nesting on one object to surface;
		// steer the default shape toward it (explicit flags still win).
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["objects"] {
			*objects = 1
		}
		if !set["threads"] {
			*threads = 2
		}
	}

	impls, err := selectImpls(*impl, *mutate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockcheck:", err)
		os.Exit(2)
	}

	// Some mutations break protocol steps that random programs only
	// trip over occasionally; a hand-written corpus exposes them at
	// schedule seed 0, so those runs check it first.
	corpus, corpusConfig := corpusFor(*mutate)

	failed := false
	for _, name := range sortedNames(impls) {
		mk := impls[name]
		if corpus != nil {
			fmt.Printf("%-18s corpus (%d programs × %d schedule seeds) ... ",
				name, len(corpus), corpusSeeds)
			if bad := checkCorpus(mk, corpus, corpusConfig, *timeout); bad != nil {
				failed = true
				fmt.Println("FAIL")
				fmt.Print(bad)
				continue // the corpus verdict stands; skip the random rounds
			}
			fmt.Println("ok")
		}
		fmt.Printf("%-18s %d rounds × %d threads × %d objects × %d ops ... ",
			name, *rounds, *threads, *objects, *ops)
		if bad := checkImpl(mk, *threads, *objects, *ops, *rounds, *seed, *timeout); bad != nil {
			failed = true
			fmt.Println("FAIL")
			fmt.Print(bad)
		} else {
			fmt.Println("ok")
		}
	}
	if failed {
		os.Exit(1)
	}
}

// corpusSeeds is how many schedule seeds each corpus program runs
// under; the seeded mutations fall to seed 0.
const corpusSeeds = 4

// corpusFor returns the hand-written programs a -mutate run checks
// before its random rounds, with the Config they are tuned for, or nil.
func corpusFor(mutate string) ([]check.NamedProgram, func(seed int64, timeout time.Duration) check.Config) {
	switch {
	case strings.HasPrefix(mutate, "lot-"), mutate == "dropwake":
		return check.LotCorpus(), check.LotCorpusConfig
	case mutate == "overflow":
		return []check.NamedProgram{check.OverflowProgram()}, func(seed int64, timeout time.Duration) check.Config {
			return check.Config{Schedule: seed, Timeout: timeout}
		}
	}
	return nil, nil
}

// checkCorpus runs a hand-written corpus against one implementation,
// every program at a schedule seed before the next seed, and returns a
// report (nil when clean). The corpus programs are already minimal, so
// failures are reported as-is without delta debugging — which also
// keeps mutation runs fast when the failure kind is a stuck schedule
// (each stuck probe costs a full watchdog timeout).
func checkCorpus(mk func() lockapi.Locker, corpus []check.NamedProgram, config func(seed int64, timeout time.Duration) check.Config, timeout time.Duration) error {
	for seed := int64(0); seed < corpusSeeds; seed++ {
		for _, tc := range corpus {
			cfg := config(seed, timeout)
			fs := check.CheckProgram(mk, tc.P, cfg)
			if len(fs) == 0 {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "  corpus program %q (schedule seed %d):\n", tc.Name, seed)
			for _, f := range fs {
				fmt.Fprintf(&b, "    %v\n", f)
			}
			for _, line := range strings.Split(strings.TrimRight(tc.P.String(), "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
			return fmt.Errorf("%s", b.String())
		}
	}
	return nil
}

// checkImpl runs the configured rounds against one implementation and
// returns a report (nil when clean).
func checkImpl(mk func() lockapi.Locker, threads, objects, ops, rounds int, seed int64, timeout time.Duration) error {
	for r := 0; r < rounds; r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*7919))
		p := check.Generate(rng, threads, objects, ops)
		cfg := check.Config{Schedule: seed + int64(r), Timeout: timeout}
		fs := check.CheckProgram(mk, p, cfg)
		if len(fs) == 0 {
			continue
		}
		min := check.Minimize(p, func(q check.Program) bool {
			return check.SameKind(check.CheckProgram(mk, q, cfg), fs[0].Kind)
		})
		var b strings.Builder
		fmt.Fprintf(&b, "  round %d (seed %d):\n", r, seed+int64(r))
		for _, f := range fs {
			fmt.Fprintf(&b, "    %v\n", f)
		}
		fmt.Fprintf(&b, "  minimized failing program:\n")
		for _, line := range strings.Split(strings.TrimRight(min.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
		return fmt.Errorf("%s", b.String())
	}
	return nil
}

// selectImpls resolves the -impl / -mutate flags to a factory map.
func selectImpls(names, mutate string) (map[string]func() lockapi.Locker, error) {
	switch mutate {
	case "":
	case "overflow":
		return map[string]func() lockapi.Locker{
			"ThinLock-mut-overflow": func() lockapi.Locker {
				return core.New(core.Options{
					CountBits:     2,
					TestMutations: core.Mutations{OverflowOffByOne: true},
				})
			},
		}, nil
	case "dropwake":
		return map[string]func() lockapi.Locker{
			"ThinLock-mut-dropwake": func() lockapi.Locker {
				return core.New(core.Options{
					Compact:       true,
					TestMutations: core.Mutations{DropQueuedWake: true},
				})
			},
		}, nil
	case "biasdepth":
		return map[string]func() lockapi.Locker{
			"Biased-mut-depth": func() lockapi.Locker {
				return biased.New(biased.Options{
					DisableRebias: true,
					TestMutations: biased.Mutations{RevokeOffByOne: true},
				})
			},
		}, nil
	case "biasdekker":
		return map[string]func() lockapi.Locker{
			"Biased-mut-dekker": func() lockapi.Locker {
				return biased.New(biased.Options{
					DisableRebias: true,
					TestMutations: biased.Mutations{SkipOwnerValidation: true},
				})
			},
		}, nil
	case "lot-validate":
		return map[string]func() lockapi.Locker{
			"ThinLock-mut-validate": func() lockapi.Locker {
				return core.New(core.Options{
					Compact:       true,
					TestMutations: core.Mutations{LotSkipValidate: true},
				})
			},
		}, nil
	case "lot-dropwake":
		return map[string]func() lockapi.Locker{
			"ThinLock-mut-lotwake": func() lockapi.Locker {
				return core.New(core.Options{
					Compact:       true,
					TestMutations: core.Mutations{LotDropWake: true},
				})
			},
		}, nil
	default:
		return nil, fmt.Errorf("unknown -mutate %q (want overflow, dropwake, biasdepth, biasdekker, lot-validate or lot-dropwake)", mutate)
	}

	all := check.Implementations()
	if names == "all" {
		return all, nil
	}
	out := make(map[string]func() lockapi.Locker)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		mk, ok := all[n]
		if !ok {
			return nil, fmt.Errorf("unknown implementation %q (have: %s)",
				n, strings.Join(check.ImplementationNames(), ", "))
		}
		out[n] = mk
	}
	return out, nil
}

// implFlagUsage builds the -impl help text from the live registry, so
// the CLI's documentation can never drift from the implementations it
// actually accepts.
func implFlagUsage() string {
	return fmt.Sprintf("comma-separated implementations to check, or \"all\" (available: %s)",
		strings.Join(check.ImplementationNames(), ", "))
}

func sortedNames(m map[string]func() lockapi.Locker) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runExplore is the -explore mode: exhaustive small-scope model
// checking of the lock-word transition table for every variant.
func runExplore() int {
	variants := []core.Variant{
		core.VariantStandard, core.VariantInline, core.VariantFnCall,
		core.VariantMPSync, core.VariantKernelCAS, core.VariantUnlockCAS,
	}
	code := 0
	for _, v := range variants {
		for _, bits := range []int{0, 1} {
			mc := check.ModelConfig{Variant: v, CountBits: bits}
			stats, err := check.ExploreAll(2, 3, 1, mc)
			label := fmt.Sprintf("%v (countbits=%d)", v, bits)
			if err != nil {
				code = 1
				fmt.Printf("%-28s FAIL\n%v\n", label, err)
				continue
			}
			fmt.Printf("%-28s ok: %d programs, %d states, %d transitions\n",
				label, stats.Programs, stats.States, stats.Transitions)
		}
	}
	// Three threads, two objects: wider races, cross-object independence.
	for _, cfg := range []struct{ threads, ops, objects int }{{3, 2, 1}, {2, 2, 2}} {
		stats, err := check.ExploreAll(cfg.threads, cfg.ops, cfg.objects, check.ModelConfig{Variant: core.VariantStandard})
		label := fmt.Sprintf("ThinLock %dt×%dop×%dobj", cfg.threads, cfg.ops, cfg.objects)
		if err != nil {
			code = 1
			fmt.Printf("%-28s FAIL\n%v\n", label, err)
			continue
		}
		fmt.Printf("%-28s ok: %d programs, %d states, %d transitions\n",
			label, stats.Programs, stats.States, stats.Transitions)
	}
	return code
}
