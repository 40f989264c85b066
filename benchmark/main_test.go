package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"thinlock/internal/bench"
	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// testScale shrinks every workload so the whole file runs in seconds.
const testScale = 0.02

func tinyConfig(w workload, trace bool) config {
	return config{workload: w, seed: 3, seconds: 50 * time.Millisecond, trace: trace, scale: testScale}
}

// generated returns the part of an input the seed generates.
func generated(in input) any {
	if in, ok := in.(*vmInput); ok {
		return in.steps
	}
	return in
}

func TestSameSeedGivesSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.build(7, testScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.build(7, testScale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(generated(a), generated(b)) {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		c, err := w.build(8, testScale)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(generated(a), generated(c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", w.name)
		}
	}
}

func TestOpsAndChecksumsAgreeAcrossImpls(t *testing.T) {
	impls, err := lookupImpls(bench.StandardImpls(), measuredImpls, referenceImpls)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		in, err := w.build(5, testScale)
		if err != nil {
			t.Fatal(err)
		}
		var wantOps, wantSum uint64
		for i, f := range impls {
			tr := newTracer(f.Name)
			sum, err := in.run(newSample(f.New(), tr))
			if err != nil {
				t.Fatalf("%s under %s: %v", w.name, f.Name, err)
			}
			ops := tr.totals().calls[callLock]
			if i == 0 {
				wantOps, wantSum = ops, sum
				continue
			}
			if ops != wantOps || sum != wantSum {
				t.Errorf("%s under %s: %d ops, checksum %x; %s gave %d ops, checksum %x",
					w.name, f.Name, ops, sum, impls[0].Name, wantOps, wantSum)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the results must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	nameUnits := func(list []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	for _, trace := range []bool{false, true} {
		want := nameUnits(spec.EndToEnd)
		if trace {
			want = nameUnits(spec.PerLayer)
		}
		res, err := measure(tinyConfig(workloads[0], trace), bench.StandardImpls())
		if err != nil {
			t.Fatal(err)
		}
		var got []struct{ Name, Unit string }
		for _, m := range res.reported() {
			got = append(got, struct{ Name, Unit string }{m.Name, m.Unit})
		}
		if g := nameUnits(got); !reflect.DeepEqual(g, want) {
			t.Errorf("trace %v: results report\n%v\nBENCHMARK.json lists\n%v", trace, g, want)
		}
	}
}

// swallowUnlock is a planted fault: it drops the n-th Unlock.
type swallowUnlock struct {
	lockapi.Locker
	n int
}

func (s *swallowUnlock) Unlock(t *threading.Thread, o *object.Object) error {
	if s.n--; s.n == 0 {
		return nil
	}
	return s.Locker.Unlock(t, o)
}

func TestLostUnlockFailsTheRun(t *testing.T) {
	fs := bench.StandardImpls()
	for i := range fs {
		if fs[i].Name == "Biased" {
			inner := fs[i].New
			fs[i].New = func() lockapi.Locker { return &swallowUnlock{Locker: inner(), n: 50} }
		}
	}
	res, err := measure(tinyConfig(workloads[0], true), fs)
	if err != nil {
		t.Fatal(err)
	}
	var failRatio float64
	for _, m := range res.PerLayer {
		if m.Name == "fail_ratio" {
			failRatio = m.Value
		}
	}
	if failRatio <= 0 || res.Correct {
		t.Errorf("fail_ratio %v, correct %v; want the lost unlock to fail samples", failRatio, res.Correct)
	}
	dir := t.TempDir()
	if code := report(res, io.Discard, filepath.Join(dir, "run.json"), filepath.Join(dir, "trace.json")); code == 0 {
		t.Error("a run with failed samples exited 0")
	}
}

// spyInput records what the workload was handed.
type spyInput struct {
	locker    lockapi.Locker
	telemetry bool
}

func (in *spyInput) run(s *sample) (uint64, error) {
	in.locker, in.telemetry = s.locker, telemetry.Enabled()
	err := s.parallel(1, func(t *threading.Thread, _ int) error {
		o := s.heap.New("Object")
		s.locker.Lock(t, o)
		return unlock(s.locker, t, o)
	})
	return 0, err
}

func TestUntracedPhaseHandsTheFactoryLocker(t *testing.T) {
	var made lockapi.Locker
	f := bench.Factory{Name: "ThinLock", New: func() lockapi.Locker {
		made = core.NewDefault()
		return made
	}}
	spy := &spyInput{}
	r := newRunner(config{workload: workload{name: "spy", threads: 1}}, []bench.Factory{f})
	r.in, r.ops = spy, 1

	if rec := r.sample(f, 0, "untraced"); rec.Error != "" {
		t.Fatal(rec.Error)
	}
	if spy.locker != made || spy.telemetry {
		t.Errorf("untraced sample got %T (factory made %T), telemetry on %v; want the factory's Locker, telemetry off",
			spy.locker, made, spy.telemetry)
	}
	if rec := r.sample(f, 0, "traced"); rec.Error != "" {
		t.Fatal(rec.Error)
	}
	if _, ok := spy.locker.(*tracer); !ok || !spy.telemetry {
		t.Errorf("traced sample got %T, telemetry on %v; want the timing decorator, telemetry on", spy.locker, spy.telemetry)
	}
	if telemetry.Enabled() {
		t.Error("telemetry still enabled after the traced sample")
	}
}

func TestTracerLockUnlockDoNotAllocate(t *testing.T) {
	reg := threading.NewRegistry()
	th, err := reg.Attach("main")
	if err != nil {
		t.Fatal(err)
	}
	d := newTracer("ThinLock").wrap(core.NewDefault())
	o := object.NewHeap().New("Object")
	allocs := testing.AllocsPerRun(1000, func() {
		d.Lock(th, o)
		if err := d.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("traced Lock+Unlock allocate %v times per call", allocs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if p := percentile(xs, 0.75); p != 8 {
		t.Errorf("p75 of 1..10 = %v, want 8 (nearest rank)", p)
	}
}
