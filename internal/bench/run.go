package bench

import "fmt"

// KernelInfo describes one Table 2 micro-benchmark.
type KernelInfo struct {
	Name        string
	Description string
	// Swept marks kernels parameterized by a working-set or thread
	// count n.
	Swept bool
}

// Kernels returns the paper's Table 2 in order.
func Kernels() []KernelInfo {
	return []KernelInfo{
		{"NoSync", "No locking — reference benchmark", false},
		{"Sync", "Initial lock with a synchronized() statement", false},
		{"NestedSync", "Nested lock with a synchronized() statement", false},
		{"MixedSync", "Three nested locks of the same object per iteration (§3.5)", false},
		{"MultiSync", "Like Sync, but synchronizes n objects every iteration", true},
		{"Call", "Calls a non-synchronized method — reference benchmark", false},
		{"CallSync", "Calls a synchronized method to obtain an initial lock", false},
		{"NestedCallSync", "Calls a synchronized method to obtain a nested lock", false},
		{"Threads", "Initial locking performed concurrently by n competing threads", true},
	}
}

// dispatch runs the named kernel on m.
func dispatch(m *Micro, kernel string, param int, iters int64) error {
	switch kernel {
	case "NoSync":
		return m.NoSync(iters)
	case "Sync":
		return m.Sync(iters)
	case "NestedSync":
		return m.NestedSync(iters)
	case "MixedSync":
		return m.MixedSync(iters)
	case "MultiSync":
		return m.MultiSync(param, iters)
	case "Call":
		return m.Call(iters)
	case "CallSync":
		return m.CallSync(iters)
	case "NestedCallSync":
		return m.NestedCallSync(iters)
	case "Threads":
		per := iters / int64(param)
		if per == 0 {
			per = 1
		}
		return m.Threads(param, per)
	default:
		return fmt.Errorf("bench: unknown kernel %q", kernel)
	}
}

// RunKernel measures one kernel under one implementation. Each sample
// runs on a freshly constructed implementation instance (a fresh "JVM"),
// matching the paper's per-run methodology, and the median is reported.
func RunKernel(f Factory, kernel string, param int, iters int64, samples int) (Result, error) {
	d, err := MedianOf(samples, func() (func() error, error) {
		m, err := NewMicro(f.New())
		if err != nil {
			return nil, err
		}
		return func() error { return dispatch(m, kernel, param, iters) }, nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Benchmark: kernel, Impl: f.Name, Param: param, Elapsed: d, Ops: iters}, nil
}

// Figure4Config controls the Figure 4 sweep.
type Figure4Config struct {
	// Iters is the loop count per kernel (the paper uses 10^6-scale
	// loops).
	Iters int64
	// Samples per measurement (median reported).
	Samples int
	// MultiSyncSizes is the working-set sweep; the interesting
	// crossovers are around the hot-lock count (32) and the monitor
	// cache capacity.
	MultiSyncSizes []int
	// ThreadCounts is the contention sweep.
	ThreadCounts []int
}

// DefaultFigure4Config returns the sweep macrobench -fig4 runs.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		Iters:          1_000_000,
		Samples:        Samples,
		MultiSyncSizes: []int{1, 4, 16, 32, 64, 128, 256, 512, 1024},
		ThreadCounts:   []int{1, 2, 4, 8},
	}
}

// RunFigure4 produces the micro-benchmark comparison of Figure 4:
// every kernel under ThinLock, IBM112 and JDK111.
func RunFigure4(cfg Figure4Config, progress func(string)) (*ResultSet, error) {
	rs := &ResultSet{}
	note := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	for _, f := range StandardImpls() {
		for _, k := range []string{"NoSync", "Sync", "NestedSync", "Call", "CallSync", "NestedCallSync"} {
			note("%s / %s", f.Name, k)
			r, err := RunKernel(f, k, 0, cfg.Iters, cfg.Samples)
			if err != nil {
				return nil, err
			}
			rs.Add(r)
		}
		for _, n := range cfg.MultiSyncSizes {
			note("%s / MultiSync %d", f.Name, n)
			r, err := RunKernel(f, "MultiSync", n, cfg.Iters, cfg.Samples)
			if err != nil {
				return nil, err
			}
			rs.Add(r)
		}
		for _, n := range cfg.ThreadCounts {
			note("%s / Threads %d", f.Name, n)
			r, err := RunKernel(f, "Threads", n, cfg.Iters, cfg.Samples)
			if err != nil {
				return nil, err
			}
			rs.Add(r)
		}
	}
	return rs, nil
}

// Figure6Config controls the implementation-variant study.
type Figure6Config struct {
	Iters   int64
	Samples int
	// Threads is the contention level for the Threads column.
	Threads int
}

// DefaultFigure6Config returns the sweep macrobench -fig6 runs.
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{Iters: 1_000_000, Samples: Samples, Threads: 4}
}

// RunFigure6 produces the Figure 6 variant study: Sync, MixedSync,
// CallSync and Threads under each thin-lock code-path variant (plus the
// IBM112 reference). The NOP variant is excluded from the Threads column
// because without locking the benchmark would race, just as the paper
// could not collect NOP results for Threads ("the Java VM was unable to
// initialize itself properly").
func RunFigure6(cfg Figure6Config, progress func(string)) (*ResultSet, error) {
	rs := &ResultSet{}
	for _, f := range VariantImpls() {
		for _, k := range []string{"Sync", "MixedSync", "CallSync"} {
			if progress != nil {
				progress(fmt.Sprintf("%s / %s", f.Name, k))
			}
			r, err := RunKernel(f, k, 0, cfg.Iters, cfg.Samples)
			if err != nil {
				return nil, err
			}
			rs.Add(r)
		}
		if f.Name == "NOP" {
			continue
		}
		if progress != nil {
			progress(fmt.Sprintf("%s / Threads %d", f.Name, cfg.Threads))
		}
		r, err := RunKernel(f, "Threads", cfg.Threads, cfg.Iters, cfg.Samples)
		if err != nil {
			return nil, err
		}
		rs.Add(r)
	}
	return rs, nil
}
