// Command tradeoffs regenerates the paper's Figure 6: the performance of
// the thin-lock implementation variants (NOP, Inline, FnCall, MP Sync,
// the final dynamic-test ThinLock, the kernel-CAS POWER path and the
// UnlkC&S pessimization) on the Sync, MixedSync, CallSync and Threads
// micro-benchmarks, with IBM112 as the reference.
//
// Usage:
//
//	tradeoffs [-iters N] [-samples N] [-threads N] [-quick] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"thinlock/internal/bench"
)

func main() {
	iters := flag.Int64("iters", 1_000_000, "loop iterations per kernel")
	samples := flag.Int("samples", bench.Samples, "samples per measurement (median reported)")
	threads := flag.Int("threads", 4, "thread count for the Threads kernel")
	quick := flag.Bool("quick", false, "shrink iterations and samples for a fast run")
	policy := flag.Bool("policy", false, "compare spin, queued inflation and compact monitors on the long-hold pathological case")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	if *policy {
		const (
			rounds     = 200
			contenders = 3
			hold       = 500 * time.Microsecond
		)
		rs, err := bench.RunContentionPolicyComparison(rounds, contenders, hold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoffs:", err)
			os.Exit(1)
		}
		fmt.Printf("Contention policy on the §2.3.4 pathological case\n")
		fmt.Printf("(%d rounds, %d contenders, %v hold per round;\n", rounds, contenders, hold)
		fmt.Printf(" wall clock, then process user+system CPU time):\n")
		for _, r := range rs {
			fmt.Println(" ", r)
		}
		fmt.Println("Queued inflation (Tasuki extension) replaces busy back-off with precise parks;")
		fmt.Println("compact monitors spin a bounded budget, then park, and inflate nothing.")
		return
	}

	cfg := bench.DefaultFigure6Config()
	cfg.Iters = *iters
	cfg.Samples = *samples
	cfg.Threads = *threads
	if *quick {
		cfg.Iters = 100_000
		cfg.Samples = 3
	}

	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "running:", s) }
	}

	rs, err := bench.RunFigure6(cfg, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tradeoffs:", err)
		os.Exit(1)
	}

	fmt.Print(bench.FormatTable(rs, fmt.Sprintf(
		"Figure 6: implementation variants (%d iterations, median of %d; Threads n=%d)",
		cfg.Iters, cfg.Samples, cfg.Threads)))
	fmt.Println("\nExpected ordering (paper): NOP < Inline < FnCall ≈ ThinLock < MP Sync;")
	fmt.Println("UnlkC&S pays an extra atomic per unlock; KernelC&S pays a kernel call per lock.")
}
