package bench

import (
	"fmt"
	"sort"
	"strings"

	"thinlock/internal/core"
	"thinlock/internal/jcl"
	"thinlock/internal/lockstat"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/workloads"
)

// RunMacro times one workload under one implementation, returning the
// median-of-samples Result (Ops = sync operations are not known without
// instrumentation, so Ops is 1 and Elapsed carries the comparison).
func RunMacro(f Factory, w workloads.Workload, size, samples int) (Result, uint64, error) {
	var checksum uint64
	d, err := MedianOf(samples, func() (func() error, error) {
		ctx := jcl.NewContext(f.New(), object.NewHeap())
		t, err := threading.NewRegistry().Attach("macro")
		if err != nil {
			return nil, err
		}
		return func() error {
			checksum = w.Run(ctx, t, size)
			return nil
		}, nil
	})
	if err != nil {
		return Result{}, 0, err
	}
	return Result{Benchmark: w.Name, Impl: f.Name, Elapsed: d, Ops: 1}, checksum, nil
}

// Characterization is one row of the paper's Table 1 plus the Figure 3
// nesting profile, regenerated by running the workload under an
// instrumented locker.
type Characterization struct {
	Workload string
	Source   string
	// Objects is the number of objects created (Table 1 "Objects").
	Objects uint64
	// Report carries synced objects, total syncs, syncs/object and the
	// per-depth breakdown.
	Report lockstat.Report
	// Checksum is the workload's result, for cross-impl verification.
	Checksum uint64
}

// Characterize runs the workload once under an instrumented thin-lock
// configuration and collects the Table 1 / Figure 3 numbers.
func Characterize(w workloads.Workload, size int) (Characterization, error) {
	rec := lockstat.New(core.NewDefault())
	heap := object.NewHeap()
	ctx := jcl.NewContext(rec, heap)
	reg := threading.NewRegistry()
	t, err := reg.Attach("characterize")
	if err != nil {
		return Characterization{}, err
	}
	checksum := w.Run(ctx, t, size)
	return Characterization{
		Workload: w.Name,
		Source:   w.Source,
		Objects:  heap.Allocated(),
		Report:   rec.Snapshot(),
		Checksum: checksum,
	}, nil
}

// FormatTable1 renders characterizations as the paper's Table 1 columns.
func FormatTable1(rows []Characterization) string {
	var b strings.Builder
	b.WriteString("Table 1: Macro-Benchmark Characterization\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %12s %12s\n",
		"program", "objects", "sync.obj", "syncs", "syncs/s.obj", "median s/o")
	for _, c := range rows {
		fmt.Fprintf(&b, "%-12s %10d %10d %10d %12.1f %12.1f\n",
			c.Workload, c.Objects, c.Report.SyncedObjects, c.Report.TotalSyncs,
			c.Report.SyncsPerObject, c.Report.MedianSyncsPerObject)
	}
	return b.String()
}

// FormatFigure3 renders the per-depth lock-operation shares, the form of
// the paper's Figure 3 stacked bars.
func FormatFigure3(rows []Characterization) string {
	var b strings.Builder
	b.WriteString("Figure 3: Depth of lock nesting by benchmark (% of lock operations)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s\n",
		"program", "First", "Second", "Third", "Fourth", "Deeper")
	for _, c := range rows {
		deeper := 0.0
		for d := 4; d <= lockstat.MaxDepthBucket; d++ {
			deeper += c.Report.DepthShare(d)
		}
		fmt.Fprintf(&b, "%-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			c.Workload,
			100*c.Report.DepthShare(0), 100*c.Report.DepthShare(1),
			100*c.Report.DepthShare(2), 100*c.Report.DepthShare(3),
			100*deeper)
	}
	return b.String()
}

// Figure5Config controls the macro comparison sweep.
type Figure5Config struct {
	// SizeScale multiplies each workload's DefaultSize (1 = defaults).
	SizeScale float64
	// Samples per measurement.
	Samples int
	// Only, when nonempty, restricts the run to the named workloads.
	Only []string
	// AfterRun, when set, is called after each (implementation,
	// workload) measurement completes — the hook cmd/macrobench uses to
	// snapshot and reset the telemetry layer per benchmark.
	AfterRun func(f Factory, w workloads.Workload)
}

// DefaultFigure5Config returns the configuration used by cmd/macrobench.
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{SizeScale: 1, Samples: Samples}
}

// RunFigure5 times every workload under every standard implementation
// and verifies that all implementations computed identical checksums.
func RunFigure5(cfg Figure5Config, progress func(string)) (*ResultSet, error) {
	rs := &ResultSet{}
	suite := workloads.All()
	for _, w := range suite {
		if len(cfg.Only) > 0 && !contains(cfg.Only, w.Name) {
			continue
		}
		size := int(float64(w.DefaultSize) * cfg.SizeScale)
		if size < 1 {
			size = 1
		}
		var wantSum uint64
		first := true
		for _, f := range StandardImpls() {
			if progress != nil {
				progress(fmt.Sprintf("%s / %s", f.Name, w.Name))
			}
			r, sum, err := RunMacro(f, w, size, cfg.Samples)
			if err != nil {
				return nil, err
			}
			if first {
				wantSum = sum
				first = false
			} else if sum != wantSum {
				return nil, fmt.Errorf("bench: %s computed %#x under %s, want %#x",
					w.Name, sum, f.Name, wantSum)
			}
			rs.Add(r)
			if cfg.AfterRun != nil {
				cfg.AfterRun(f, w)
			}
		}
	}
	return rs, nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// MedianSpeedup computes the median and maximum speedup of impl over
// baseline across the benchmarks present in rs — the headline numbers of
// the paper's Figure 5 (ThinLock: median 1.22x, max 1.7x over JDK111).
func MedianSpeedup(rs *ResultSet, impl, baseline string) (median, max float64) {
	var speeds []float64
	for _, key := range rs.Benchmarks() {
		r, ok1 := rs.Get(key.Benchmark, impl, key.Param)
		b, ok2 := rs.Get(key.Benchmark, baseline, key.Param)
		if ok1 && ok2 {
			speeds = append(speeds, r.Speedup(b))
		}
	}
	if len(speeds) == 0 {
		return 0, 0
	}
	sort.Float64s(speeds)
	max = speeds[len(speeds)-1]
	mid := len(speeds) / 2
	if len(speeds)%2 == 1 {
		median = speeds[mid]
	} else {
		median = (speeds[mid-1] + speeds[mid]) / 2
	}
	return median, max
}
