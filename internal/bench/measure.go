package bench

import (
	"fmt"
	"slices"
	"time"
)

// Samples is how many times each measurement is repeated; the paper
// reports "the median of 10 sample runs" (§3). Commands may lower this
// for quick runs.
const Samples = 10

// MedianOf times samples runs and returns their median duration, the
// paper's methodology. Before each run it calls setup, untimed, for the
// run to time, so every sample can start from a fresh implementation
// instance.
func MedianOf(samples int, setup func() (run func() error, err error)) (time.Duration, error) {
	ds := make([]time.Duration, max(samples, 1))
	for i := range ds {
		run, err := setup()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// Result is one (benchmark, implementation) measurement.
type Result struct {
	Benchmark string
	Impl      string
	// Param is the sweep parameter (working-set size n, thread count),
	// 0 when the benchmark has none.
	Param int
	// Elapsed is the median wall-clock time for Ops operations.
	Elapsed time.Duration
	// Ops is the number of benchmark operations performed.
	Ops int64
}

// NsPerOp returns nanoseconds per operation.
func (r Result) NsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
}

// MsPerMillion scales to milliseconds per million operations, the unit
// of the paper's Figure 4 bars (which plot ms for 10^6-iteration loops).
func (r Result) MsPerMillion() float64 { return r.NsPerOp() }

// Key identifies the measurement in tables.
func (r Result) Key() string {
	if r.Param != 0 {
		return fmt.Sprintf("%s %d", r.Benchmark, r.Param)
	}
	return r.Benchmark
}

// Speedup returns how many times faster r is than baseline (>1 means r
// wins).
func (r Result) Speedup(baseline Result) float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(baseline.Elapsed) / float64(r.Elapsed)
}

// ResultSet accumulates results and answers table queries.
type ResultSet struct {
	Results []Result
}

// Add appends a result.
func (rs *ResultSet) Add(r Result) { rs.Results = append(rs.Results, r) }

// Get finds the result for (benchmark, impl, param).
func (rs *ResultSet) Get(benchmark, impl string, param int) (Result, bool) {
	for _, r := range rs.Results {
		if r.Benchmark == benchmark && r.Impl == impl && r.Param == param {
			return r, true
		}
	}
	return Result{}, false
}

// Benchmarks returns the distinct (benchmark, param) keys in insertion
// order.
func (rs *ResultSet) Benchmarks() []Result {
	var keys []Result
	seen := make(map[string]bool)
	for _, r := range rs.Results {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, r)
		}
	}
	return keys
}

// Impls returns the distinct implementation names in insertion order.
func (rs *ResultSet) Impls() []string {
	var impls []string
	seen := make(map[string]bool)
	for _, r := range rs.Results {
		if !seen[r.Impl] {
			seen[r.Impl] = true
			impls = append(impls, r.Impl)
		}
	}
	return impls
}
