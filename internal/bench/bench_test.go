package bench

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestKernelsRunUnderEveryImplementation(t *testing.T) {
	const iters = 2_000
	for _, f := range StandardImpls() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			m, err := NewMicro(f.New())
			if err != nil {
				t.Fatal(err)
			}
			steps := []struct {
				name string
				run  func() error
			}{
				{"NoSync", func() error { return m.NoSync(iters) }},
				{"Sync", func() error { return m.Sync(iters) }},
				{"NestedSync", func() error { return m.NestedSync(iters) }},
				{"MixedSync", func() error { return m.MixedSync(iters) }},
				{"MultiSync1", func() error { return m.MultiSync(1, iters) }},
				{"MultiSync33", func() error { return m.MultiSync(33, iters) }},
				{"MultiSync200", func() error { return m.MultiSync(200, iters) }},
				{"Call", func() error { return m.Call(iters) }},
				{"CallSync", func() error { return m.CallSync(iters) }},
				{"NestedCallSync", func() error { return m.NestedCallSync(iters) }},
				{"Threads2", func() error { return m.Threads(2, iters/2) }},
				{"Threads4", func() error { return m.Threads(4, iters/4) }},
			}
			for _, s := range steps {
				if err := s.run(); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
		})
	}
}

func TestKernelsRunUnderEveryVariant(t *testing.T) {
	const iters = 1_000
	for _, f := range VariantImpls() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			m, err := NewMicro(f.New())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Sync(iters); err != nil {
				t.Fatal(err)
			}
			if err := m.MixedSync(iters); err != nil {
				t.Fatal(err)
			}
			if err := m.CallSync(iters); err != nil {
				t.Fatal(err)
			}
			if f.Name != "NOP" {
				if err := m.Threads(3, iters); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestDispatchUnknownKernel(t *testing.T) {
	m, err := NewMicro(StandardImpls()[0].New())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run("Bogus", 0, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestDispatchCoversAllKernels(t *testing.T) {
	m, err := NewMicro(StandardImpls()[0].New())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kernels() {
		param := 0
		if k.Swept {
			param = 2
		}
		if err := m.Run(k.Name, param, 100); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestRunKernelProducesResult(t *testing.T) {
	f, ok := Lookup(StandardImpls(), "ThinLock")
	if !ok {
		t.Fatal("ThinLock factory missing")
	}
	r, err := RunKernel(f, "Sync", 0, 5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "Sync" || r.Impl != "ThinLock" || r.Ops != 5_000 {
		t.Errorf("result fields wrong: %+v", r)
	}
	if r.Elapsed <= 0 {
		t.Error("non-positive elapsed time")
	}
	if r.NsPerOp() <= 0 {
		t.Error("non-positive ns/op")
	}
}

func TestResultMath(t *testing.T) {
	r := Result{Benchmark: "Sync", Impl: "A", Elapsed: 2 * time.Second, Ops: 1_000_000}
	if r.NsPerOp() != 2000 {
		t.Errorf("NsPerOp = %f", r.NsPerOp())
	}
	if r.MsPerMillion() != 2000 {
		t.Errorf("MsPerMillion = %f", r.MsPerMillion())
	}
	base := Result{Elapsed: 4 * time.Second}
	if r.Speedup(base) != 2 {
		t.Errorf("Speedup = %f", r.Speedup(base))
	}
	if (Result{}).NsPerOp() != 0 {
		t.Error("zero-ops NsPerOp")
	}
	if (Result{}).Speedup(base) != 0 {
		t.Error("zero-elapsed Speedup")
	}
	if r.Key() != "Sync" {
		t.Errorf("Key = %q", r.Key())
	}
	r.Param = 32
	if r.Key() != "Sync 32" {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestResultSetQueries(t *testing.T) {
	rs := &ResultSet{}
	rs.Add(Result{Benchmark: "Sync", Impl: "A", Elapsed: time.Second, Ops: 1})
	rs.Add(Result{Benchmark: "Sync", Impl: "B", Elapsed: 2 * time.Second, Ops: 1})
	rs.Add(Result{Benchmark: "MultiSync", Impl: "A", Param: 32, Elapsed: time.Second, Ops: 1})
	if _, ok := rs.Get("Sync", "B", 0); !ok {
		t.Error("Get missed")
	}
	if _, ok := rs.Get("Sync", "C", 0); ok {
		t.Error("Get found phantom")
	}
	if got := rs.Impls(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Impls = %v", got)
	}
	if got := rs.Benchmarks(); len(got) != 2 {
		t.Errorf("Benchmarks = %v", got)
	}
}

func TestMedianOf(t *testing.T) {
	setups, runs := 0, 0
	d, err := MedianOf(5, func() (func() error, error) {
		setups++
		time.Sleep(20 * time.Millisecond) // untimed
		return func() error {
			runs++
			time.Sleep(time.Millisecond)
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if setups != 5 || runs != 5 {
		t.Errorf("setups = %d, runs = %d, want 5 each", setups, runs)
	}
	if d < time.Millisecond/2 || d >= 20*time.Millisecond {
		t.Errorf("median = %v, want the run alone (~1ms), not its setup", d)
	}
	runs = 0
	if _, err := MedianOf(0, func() (func() error, error) {
		return func() error { runs++; return nil }, nil
	}); err != nil || runs != 1 {
		t.Errorf("samples=0: err = %v, runs = %d; want one sample", err, runs)
	}
	bad := errors.New("bad")
	if _, err := MedianOf(3, func() (func() error, error) { return nil, bad }); !errors.Is(err, bad) {
		t.Errorf("setup error = %v, want %v", err, bad)
	}
	if _, err := MedianOf(3, func() (func() error, error) {
		return func() error { return bad }, nil
	}); !errors.Is(err, bad) {
		t.Errorf("run error = %v, want %v", err, bad)
	}
}

func TestFormatTableAndSpeedups(t *testing.T) {
	rs := &ResultSet{}
	rs.Add(Result{Benchmark: "Sync", Impl: "ThinLock", Elapsed: time.Second, Ops: 1_000_000})
	rs.Add(Result{Benchmark: "Sync", Impl: "JDK111", Elapsed: 4 * time.Second, Ops: 1_000_000})
	// A 16-character name after another must not run into it.
	rs.Add(Result{Benchmark: "Sync", Impl: "Biased", Elapsed: time.Second, Ops: 1_000_000})
	rs.Add(Result{Benchmark: "Sync", Impl: "ThinLock-compact", Elapsed: 2 * time.Second, Ops: 1_000_000})
	table := FormatTable(rs, "Figure 4")
	for _, want := range []string{"Figure 4", "ThinLock", "JDK111", "Sync", "1000.0", "4000.0", "2000.0"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	checkHeader(t, table, 1, "benchmark", "ThinLock", "JDK111", "Biased", "ThinLock-compact")
	sp := FormatSpeedups(rs, "JDK111", "Figure 5")
	if !strings.Contains(sp, "4.00x") {
		t.Errorf("speedups missing 4.00x:\n%s", sp)
	}
	checkHeader(t, sp, 1, "benchmark", "ThinLock", "Biased", "ThinLock-compact")
	if fields := strings.Fields(strings.Split(sp, "\n")[2]); !slices.Equal(fields, []string{"Sync", "4.00x", "4.00x", "2.00x"}) {
		t.Errorf("speedup row = %q", fields)
	}
}

// checkHeader fails unless line n of table splits into exactly want.
func checkHeader(t *testing.T, table string, n int, want ...string) {
	t.Helper()
	if got := strings.Fields(strings.Split(table, "\n")[n]); !slices.Equal(got, want) {
		t.Errorf("header = %q, want %q:\n%s", got, want, table)
	}
}

func TestFormatMacroTable(t *testing.T) {
	rs := &ResultSet{}
	rs.Add(Result{Benchmark: "crema", Impl: "ThinLock", Elapsed: 1500 * time.Millisecond, Ops: 1})
	out := FormatMacroTable(rs, "Figure 5 raw times")
	for _, want := range []string{"Figure 5", "crema", "1500.0", "ms per run"} {
		if !strings.Contains(out, want) {
			t.Errorf("macro table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatKernelList(t *testing.T) {
	s := FormatKernelList()
	for _, k := range Kernels() {
		if !strings.Contains(s, k.Name) {
			t.Errorf("kernel list missing %s", k.Name)
		}
	}
}

func TestPredict(t *testing.T) {
	fast := Result{Elapsed: 1 * time.Second, Ops: 1_000_000}   // 1000 ns/op
	slow := Result{Elapsed: 36 * time.Second, Ops: 10_000_000} // 3600 ns/op
	// 2.6 us/op difference over 2.4M ops = 6.24 s.
	got := Predict(fast, slow, 2_400_000)
	if got < 6.23 || got > 6.25 {
		t.Errorf("Predict = %f, want ~6.24", got)
	}
}

func TestRunFigure4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full kernel × impl matrix")
	}
	cfg := Figure4Config{
		Iters:          2_000,
		Samples:        1,
		MultiSyncSizes: []int{1, 64},
		ThreadCounts:   []int{2},
	}
	var lines []string
	rs, err := RunFigure4(cfg, func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	// 6 fixed kernels + 2 multisync + 1 threads = 9 per impl.
	want := 9 * len(StandardImpls())
	if len(rs.Results) != want {
		t.Errorf("results = %d, want %d", len(rs.Results), want)
	}
	if len(lines) != want {
		t.Errorf("progress lines = %d, want %d", len(lines), want)
	}
}

func TestRunFigure6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full variant matrix")
	}
	cfg := Figure6Config{Iters: 1_000, Samples: 1, Threads: 2}
	rs, err := RunFigure6(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every variant × 3 kernels + (all but NOP) × Threads.
	n := len(VariantImpls())
	if want := n*3 + (n - 1); len(rs.Results) != want {
		t.Errorf("results = %d, want %d", len(rs.Results), want)
	}
	if _, ok := rs.Get("Threads", "NOP", 2); ok {
		t.Error("NOP must be excluded from Threads")
	}
}

func TestDefaultConfigs(t *testing.T) {
	f4 := DefaultFigure4Config()
	if f4.Iters != 1_000_000 || f4.Samples != Samples || len(f4.MultiSyncSizes) == 0 || len(f4.ThreadCounts) == 0 {
		t.Errorf("Figure4 defaults: %+v", f4)
	}
	f5 := DefaultFigure5Config()
	if f5.SizeScale != 1 || f5.Samples != Samples {
		t.Errorf("Figure5 defaults: %+v", f5)
	}
	f6 := DefaultFigure6Config()
	if f6.Iters != 1_000_000 || f6.Threads != 4 {
		t.Errorf("Figure6 defaults: %+v", f6)
	}
}

func TestMicroLockerAccessor(t *testing.T) {
	l := StandardImpls()[0].New()
	m, err := NewMicro(l)
	if err != nil {
		t.Fatal(err)
	}
	if m.Locker() != l {
		t.Error("Locker accessor mismatch")
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup(StandardImpls(), "IBM112"); !ok {
		t.Error("IBM112 missing")
	}
	if _, ok := Lookup(StandardImpls(), "nope"); ok {
		t.Error("phantom factory found")
	}
}

func TestSyncOnReusedTargetStaysCorrect(t *testing.T) {
	m, err := NewMicro(StandardImpls()[1].New()) // IBM112
	if err != nil {
		t.Fatal(err)
	}
	o, err := m.NewTarget()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.SyncOn(o, 1_000); err != nil {
			t.Fatal(err)
		}
	}
}
