// Command macrobench regenerates the paper's evaluation, one table or
// figure per mode:
//
//	-table1   Table 1 workload characterization
//	-table2   Table 2 micro-benchmark definitions
//	-fig3     Figure 3 nesting profile
//	-fig4     Figure 4 micro-benchmarks under ThinLock, IBM112 and JDK111
//	(none)    Figure 5 macro speedups over JDK111
//	-fig6     Figure 6 thin-lock implementation variants
//	-predict  the §3.4 cross-check of macro speedups against micro costs
//	-space    the lock-storage footprint comparison
//	-policy   spin, queued inflation and compact monitors on the §2.3.4
//	          long-hold case (an extension)
//
// Usage:
//
//	macrobench [-scale F] [-samples N] [-iters N] [-only name,name]
//	           [-table1] [-table2] [-fig3] [-fig4] [-fig6] [-predict] [-space]
//	           [-policy] [-telemetry] [-timeseries] [-v]
//
// Every timing except -policy's (one run per policy) is the median of
// -samples runs (§3). -iters sets the loop count of the micro-benchmark
// kernels behind -fig4 and -fig6. -scale and -only size and select the
// workloads behind -table1, -fig3, -space and Figure 5; an unknown
// workload name is an error. -predict always compares javalex and jax.
//
// -timeseries records a lockscope contention timeline during the
// Figure 5 run: the sampler captures windowed rates at the
// -timeseries-interval cadence, each (implementation, workload) pair
// becomes one phase cut at an exact boundary, and the per-workload
// timelines land in -timeseries-dir/timeseries_<workload>.json along
// with any anomalies the detector flagged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"thinlock/internal/bench"
	"thinlock/internal/lockprof"
	"thinlock/internal/lockscope"
	"thinlock/internal/telemetry"
	"thinlock/internal/workloads"
)

// timeseriesPhase is one (implementation, workload) stretch of the
// lockscope timeline.
type timeseriesPhase struct {
	Impl    string             `json:"impl"`
	Samples []lockscope.Sample `json:"samples"`
}

// timeseriesFile is the schema of timeseries_<workload>.json.
type timeseriesFile struct {
	Workload   string              `json:"workload"`
	IntervalNs int64               `json:"interval_ns"`
	Phases     []timeseriesPhase   `json:"phases"`
	Anomalies  []lockscope.Anomaly `json:"anomalies"`
}

func main() {
	scale := flag.Float64("scale", 1, "workload size multiplier")
	samples := flag.Int("samples", bench.Samples, "samples per measurement (median reported)")
	iters := flag.Int64("iters", 1_000_000, "loop iterations per micro-benchmark kernel (-fig4, -fig6)")
	only := flag.String("only", "", "comma-separated workload subset")
	table1 := flag.Bool("table1", false, "print the Table 1 characterization and exit")
	table2 := flag.Bool("table2", false, "print the Table 2 micro-benchmark definitions and exit")
	fig3 := flag.Bool("fig3", false, "print the Figure 3 nesting profile and exit")
	fig4 := flag.Bool("fig4", false, "run the Figure 4 micro-benchmarks and exit")
	fig6 := flag.Bool("fig6", false, "run the Figure 6 implementation variants and exit")
	predict := flag.Bool("predict", false, "run the §3.4 micro-to-macro prediction cross-check")
	space := flag.Bool("space", false, "print the lock-storage footprint comparison and exit")
	policy := flag.Bool("policy", false, "compare spin, queued inflation and compact monitors on the long-hold pathological case")
	withTelemetry := flag.Bool("telemetry", false, "record lock telemetry during the Figure 5 run and write per-workload snapshots to -telemetry-dir")
	telemetryDir := flag.String("telemetry-dir", "results", "directory for -telemetry snapshot JSON files")
	withTimeseries := flag.Bool("timeseries", false, "record a lockscope contention timeline during the Figure 5 run and write per-workload phase timelines to -timeseries-dir")
	timeseriesInterval := flag.Duration("timeseries-interval", 50*time.Millisecond, "lockscope sampling cadence for -timeseries")
	timeseriesDir := flag.String("timeseries-dir", "results", "directory for -timeseries timeline JSON files")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "macrobench:", err)
		os.Exit(1)
	}
	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "running:", s) }
	}

	// The modes that run no workload.
	var mode func() error
	switch {
	case *table2:
		mode = func() error { fmt.Print(bench.FormatKernelList()); return nil }
	case *fig4:
		mode = func() error { return runFigure4(*iters, *samples, progress) }
	case *fig6:
		mode = func() error { return runFigure6(*iters, *samples, progress) }
	case *predict:
		mode = func() error { return runPredict(*samples) }
	case *policy:
		mode = runPolicy
	}
	if mode != nil {
		if err := mode(); err != nil {
			fail(err)
		}
		return
	}

	selected := workloads.All()
	if *only != "" {
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			w, ok := workloads.ByName(name)
			if !ok {
				fail(fmt.Errorf("unknown workload %q", name))
			}
			selected = append(selected, w)
		}
	}
	sizeOf := func(w workloads.Workload) int {
		return max(int(float64(w.DefaultSize)*(*scale)), 1)
	}

	if *table1 || *fig3 {
		var rows []bench.Characterization
		for _, w := range selected {
			c, err := bench.Characterize(w, sizeOf(w))
			if err != nil {
				fail(err)
			}
			rows = append(rows, c)
		}
		if *table1 {
			fmt.Print(bench.FormatTable1(rows))
			if *fig3 {
				fmt.Println()
			}
		}
		if *fig3 {
			fmt.Print(bench.FormatFigure3(rows))
		}
		return
	}

	if *space {
		results := make(map[string][]bench.SpaceRow)
		var order []string
		for _, w := range selected {
			rows, err := bench.SpaceUsage(w, sizeOf(w))
			if err != nil {
				fail(err)
			}
			results[w.Name] = rows
			order = append(order, w.Name)
		}
		fmt.Print(bench.FormatSpace(results, order))
		return
	}

	cfg := bench.DefaultFigure5Config()
	cfg.SizeScale = *scale
	cfg.Samples = *samples
	if *only != "" {
		cfg.Only = strings.Split(*only, ",")
	}

	// With -telemetry, the always-on counter layer records every
	// measured run; the per-benchmark snapshot (covering all samples of
	// one implementation/workload pair) lands next to the timing
	// results. The counters are sharded atomics, so unlike the lockstat
	// wrapper this does not distort the timing comparison.
	var snaps map[string]map[string]telemetry.Snapshot
	if *withTelemetry {
		m := telemetry.Enable(telemetry.New())
		defer telemetry.Disable()
		snaps = make(map[string]map[string]telemetry.Snapshot)
		cfg.AfterRun = func(f bench.Factory, w workloads.Workload) {
			snap := m.Snapshot()
			m.Reset()
			if snaps[w.Name] == nil {
				snaps[w.Name] = make(map[string]telemetry.Snapshot)
			}
			snaps[w.Name][f.Name] = snap
		}
	}

	// With -timeseries, the lockscope sampler runs through the whole
	// Figure 5 sweep and each (implementation, workload) measurement is
	// cut into its own phase at an exact window boundary. The profiler
	// rides along at SampleEvery 1 so samples carry site attribution.
	var tsData map[string]*timeseriesFile
	var tsOrder []string
	if *withTimeseries {
		if !*withTelemetry {
			telemetry.Enable(telemetry.New())
			defer telemetry.Disable()
		}
		lockprof.Enable(lockprof.New(lockprof.Config{SampleEvery: 1}))
		defer lockprof.Disable()
		sc := lockscope.Enable(lockscope.New(lockscope.Config{
			Interval: *timeseriesInterval,
			// Long phases must not wrap out of the ring before the cut:
			// 4096 windows is ~3.4 min of history at the default cadence.
			Capacity: 4096,
		}))
		defer lockscope.Disable()
		sc.Start()
		defer sc.Stop()

		tsData = make(map[string]*timeseriesFile)
		var nextIdx uint64 // first sample index not yet consumed by a phase
		prevAfter := cfg.AfterRun
		cfg.AfterRun = func(f bench.Factory, w workloads.Workload) {
			cut := sc.ForceSample() // close the phase at an exact boundary
			var phase timeseriesPhase
			phase.Impl = f.Name
			for _, s := range sc.Series(0).Samples {
				if s.Index >= nextIdx && s.Index <= cut.Index {
					phase.Samples = append(phase.Samples, s)
				}
			}
			nextIdx = cut.Index + 1
			file := tsData[w.Name]
			if file == nil {
				file = &timeseriesFile{Workload: w.Name, IntervalNs: int64(sc.Interval())}
				tsData[w.Name] = file
				tsOrder = append(tsOrder, w.Name)
			}
			file.Phases = append(file.Phases, phase)
			for _, s := range phase.Samples {
				file.Anomalies = append(file.Anomalies, s.Anomalies...)
			}
			if prevAfter != nil {
				// The -telemetry hook resets the counters; rebaseline so
				// the next phase's first window does not difference
				// against pre-reset cumulative values.
				prevAfter(f, w)
				nextIdx = sc.ForceSample().Index + 1
			}
		}
	}

	rs, err := bench.RunFigure5(cfg, progress)
	if err != nil {
		fail(err)
	}

	if *withTimeseries {
		if err := os.MkdirAll(*timeseriesDir, 0o755); err != nil {
			fail(err)
		}
		for _, name := range tsOrder {
			path := filepath.Join(*timeseriesDir, "timeseries_"+name+".json")
			data, err := json.MarshalIndent(tsData[name], "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintln(os.Stderr, "timeseries:", path)
		}
	}

	if *withTelemetry {
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			fail(err)
		}
		for name, byImpl := range snaps {
			path := filepath.Join(*telemetryDir, "telemetry_"+name+".json")
			data, err := json.MarshalIndent(byImpl, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintln(os.Stderr, "telemetry:", path)
		}
	}
	fmt.Print(bench.FormatMacroTable(rs, "Figure 5 raw times"))
	fmt.Println()
	fmt.Print(bench.FormatSpeedups(rs, "JDK111", "Figure 5"))
	medThin, maxThin := bench.MedianSpeedup(rs, "ThinLock", "JDK111")
	medIBM, maxIBM := bench.MedianSpeedup(rs, "IBM112", "JDK111")
	fmt.Printf("\nThinLock vs JDK111: median %.2fx, max %.2fx (paper: 1.22x / 1.7x)\n", medThin, maxThin)
	fmt.Printf("IBM112   vs JDK111: median %.2fx, max %.2fx (paper: 1.04x / —)\n", medIBM, maxIBM)
}

// runFigure4 prints the Figure 4 micro-benchmark table, every Table 2
// kernel under ThinLock, IBM112 and JDK111 (and the extensions), and
// their speedups over JDK111.
func runFigure4(iters int64, samples int, progress func(string)) error {
	cfg := bench.DefaultFigure4Config()
	cfg.Iters = iters
	cfg.Samples = samples
	rs, err := bench.RunFigure4(cfg, progress)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable(rs, fmt.Sprintf(
		"Figure 4: micro-benchmark performance (%d iterations, median of %d)",
		cfg.Iters, cfg.Samples)))
	fmt.Println()
	fmt.Print(bench.FormatSpeedups(rs, "JDK111", "Figure 4 speedups"))
	return nil
}

// runFigure6 prints the Figure 6 variant study: Sync, MixedSync,
// CallSync and Threads under each thin-lock code-path variant, with
// IBM112 as the reference.
func runFigure6(iters int64, samples int, progress func(string)) error {
	cfg := bench.DefaultFigure6Config()
	cfg.Iters = iters
	cfg.Samples = samples
	rs, err := bench.RunFigure6(cfg, progress)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable(rs, fmt.Sprintf(
		"Figure 6: implementation variants (%d iterations, median of %d; Threads n=%d)",
		cfg.Iters, cfg.Samples, cfg.Threads)))
	fmt.Println("\nExpected ordering (paper): NOP < Inline < FnCall ≈ ThinLock < MP Sync;")
	fmt.Println("UnlkC&S pays an extra atomic per unlock; KernelC&S pays a kernel call per lock.")
	return nil
}

// runPolicy prints the contention-policy comparison on the §2.3.4
// pathological case: an owner holds the lock long while others contend.
func runPolicy() error {
	const (
		rounds     = 200
		contenders = 3
		hold       = 500 * time.Microsecond
	)
	rs, err := bench.RunContentionPolicyComparison(rounds, contenders, hold)
	if err != nil {
		return err
	}
	fmt.Printf("Contention policy on the §2.3.4 pathological case\n")
	fmt.Printf("(%d rounds, %d contenders, %v hold per round;\n", rounds, contenders, hold)
	fmt.Printf(" wall clock, then process user+system CPU time):\n")
	for _, r := range rs {
		fmt.Println(" ", r)
	}
	fmt.Println("Queued inflation (Tasuki extension) replaces busy back-off with precise parks;")
	fmt.Println("compact monitors spin a bounded budget, then park, and inflate nothing.")
	return nil
}

// runPredict reproduces §3.4: predict a workload's absolute speedup from
// the per-operation micro-benchmark cost difference times the workload's
// synchronized-operation count, then compare against the measured
// difference (the paper predicts 6.5s for javalex's 2.4M synchronized
// calls and measures 6.6s).
func runPredict(samples int) error {
	const microIters = 500_000
	thin, _ := bench.Lookup(bench.StandardImpls(), "ThinLock")
	jdk, _ := bench.Lookup(bench.StandardImpls(), "JDK111")

	fastSync, err := bench.RunKernel(thin, "Sync", 0, microIters, samples)
	if err != nil {
		return err
	}
	slowSync, err := bench.RunKernel(jdk, "Sync", 0, microIters, samples)
	if err != nil {
		return err
	}

	fmt.Printf("micro cost: Sync %s %.0f ns/op, %s %.0f ns/op\n",
		fastSync.Impl, fastSync.NsPerOp(), slowSync.Impl, slowSync.NsPerOp())

	for _, name := range []string{"javalex", "jax"} {
		w, _ := workloads.ByName(name)
		c, err := bench.Characterize(w, w.DefaultSize)
		if err != nil {
			return err
		}
		predicted := bench.Predict(fastSync, slowSync, int64(c.Report.TotalSyncs))

		rThin, _, err := bench.RunMacro(thin, w, w.DefaultSize, samples)
		if err != nil {
			return err
		}
		rJDK, _, err := bench.RunMacro(jdk, w, w.DefaultSize, samples)
		if err != nil {
			return err
		}
		measured := rJDK.Elapsed.Seconds() - rThin.Elapsed.Seconds()
		fmt.Printf("%-10s %8d syncs: predicted saving %.3fs, measured %.3fs\n",
			name, c.Report.TotalSyncs, predicted, measured)
	}
	return nil
}
