package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"thinlock/internal/lockevent"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

func attach(t *testing.T, reg *threading.Registry, name string) *threading.Thread {
	t.Helper()
	th, err := reg.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func TestCounterNamesAreUniqueAndStable(t *testing.T) {
	t.Parallel()
	seen := make(map[string]bool)
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		n := c.Name()
		if n == "" || n == "unknown" {
			t.Errorf("counter %d has no name", c)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	if telemetry.NumCounters.Name() != "unknown" {
		t.Error("out-of-range counter must report unknown")
	}
	for h := telemetry.Histo(0); h < telemetry.NumHistos; h++ {
		if h.Name() == "" || h.Name() == "unknown" {
			t.Errorf("histogram %d has no name", h)
		}
	}
}

func TestIncSumsAcrossThreads(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	reg := threading.NewRegistry()
	a := attach(t, reg, "a")
	b := attach(t, reg, "b")
	m.Inc(a, telemetry.CtrSlowPathEntries)
	m.Inc(b, telemetry.CtrSlowPathEntries)
	m.Inc(nil, telemetry.CtrSlowPathEntries) // threadless hook site
	m.Add(a, telemetry.CtrCASFailures, 5)
	if got := m.Counter(telemetry.CtrSlowPathEntries); got != 3 {
		t.Errorf("slow path entries = %d, want 3", got)
	}
	if got := m.Counter(telemetry.CtrCASFailures); got != 5 {
		t.Errorf("cas failures = %d, want 5", got)
	}
}

func TestObserveBucketsLogScale(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	// 0 and negatives land in bucket 0; v lands in bucket bits.Len64(v).
	m.Observe(nil, telemetry.HistAcquireSlowNs, 0)
	m.Observe(nil, telemetry.HistAcquireSlowNs, -7)
	m.Observe(nil, telemetry.HistAcquireSlowNs, 1)    // bucket 1
	m.Observe(nil, telemetry.HistAcquireSlowNs, 1000) // bucket 10
	s := m.Snapshot()
	h := s.Histograms[telemetry.HistAcquireSlowNs.Name()]
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	if h.Sum != 1001 {
		t.Errorf("sum = %d, want 1001 (negatives clamp)", h.Sum)
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[10] != 1 {
		t.Errorf("buckets = %v", h.Buckets[:12])
	}
}

func TestBucketUpperBound(t *testing.T) {
	t.Parallel()
	if telemetry.BucketUpperBound(0) != 0 {
		t.Error("bucket 0 holds only 0")
	}
	if telemetry.BucketUpperBound(4) != 15 {
		t.Errorf("bucket 4 upper bound = %d, want 15", telemetry.BucketUpperBound(4))
	}
	if telemetry.BucketUpperBound(telemetry.NumBuckets-1) != ^uint64(0) {
		t.Error("last bucket must be unbounded")
	}
}

func TestHistQuantileAndMean(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	for i := 0; i < 90; i++ {
		m.Observe(nil, telemetry.HistMonitorStallNs, 10) // bucket 4, le 15
	}
	for i := 0; i < 10; i++ {
		m.Observe(nil, telemetry.HistMonitorStallNs, 1000) // bucket 10, le 1023
	}
	h := m.Snapshot().Histograms[telemetry.HistMonitorStallNs.Name()]
	// Interpolated p50: rank 50 of 90 observations in bucket 4 ([8,15])
	// lands at 8 + (50/90)*7 ≈ 11.9, not at the old upper bound 15.
	if got := h.Quantile(0.5); got != 12 {
		t.Errorf("p50 = %d, want 12", got)
	}
	// Interpolated p99: rank 99, 90 below bucket 10 ([512,1023]),
	// 512 + (9/10)*511 ≈ 971.9.
	if got := h.Quantile(0.99); got != 972 {
		t.Errorf("p99 = %d, want 972", got)
	}
	want := (90*10.0 + 10*1000.0) / 100
	if h.Mean() != want {
		t.Errorf("mean = %f, want %f", h.Mean(), want)
	}
	var empty telemetry.HistSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
}

// TestHistQuantileInterpolation pins the within-bucket interpolation
// contract on the degenerate shapes: an empty histogram, every
// observation in one bucket, the zero bucket, and a histogram saturated
// into the open-ended last bucket.
func TestHistQuantileInterpolation(t *testing.T) {
	t.Parallel()

	t.Run("empty", func(t *testing.T) {
		var empty telemetry.HistSnapshot
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			if got := empty.Quantile(q); got != 0 {
				t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
			}
		}
	})

	t.Run("single-bucket", func(t *testing.T) {
		m := telemetry.New()
		for i := 0; i < 4; i++ {
			m.Observe(nil, telemetry.HistAcquireSlowNs, 10) // bucket 4: [8,15]
		}
		h := m.Snapshot().Histograms[telemetry.HistAcquireSlowNs.Name()]
		// p50 interpolates halfway into [8,15]: 8 + 0.5*7 = 11.5 → 12.
		if got := h.Quantile(0.5); got != 12 {
			t.Errorf("single-bucket p50 = %d, want 12", got)
		}
		// q=1 must reach the bucket's upper bound exactly.
		if got := h.Quantile(1); got != 15 {
			t.Errorf("single-bucket p100 = %d, want 15", got)
		}
		// A tiny q still anchors at rank 1: 8 + (1/4)*7 = 9.75 → 10.
		if got := h.Quantile(0.0001); got != 10 {
			t.Errorf("single-bucket p0.01 = %d, want 10", got)
		}
	})

	t.Run("zero-bucket", func(t *testing.T) {
		m := telemetry.New()
		m.Observe(nil, telemetry.HistAcquireSlowNs, 0)
		h := m.Snapshot().Histograms[telemetry.HistAcquireSlowNs.Name()]
		if got := h.Quantile(0.99); got != 0 {
			t.Errorf("zero-bucket p99 = %d, want 0", got)
		}
	})

	t.Run("saturated", func(t *testing.T) {
		m := telemetry.New()
		for i := 0; i < 3; i++ {
			// Far beyond the last bounded bucket; lands in the
			// open-ended bucket NumBuckets-1.
			m.Observe(nil, telemetry.HistAcquireSlowNs, int64(1)<<60)
		}
		h := m.Snapshot().Histograms[telemetry.HistAcquireSlowNs.Name()]
		// No upper bound to interpolate toward: report the bucket's
		// lower bound 2^(NumBuckets-2) rather than MaxUint64.
		wantLower := uint64(1) << uint(telemetry.NumBuckets-2)
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := h.Quantile(q); got != wantLower {
				t.Errorf("saturated Quantile(%v) = %d, want %d", q, got, wantLower)
			}
		}
	})
}

func TestSnapshotMergeAndDelta(t *testing.T) {
	t.Parallel()
	m1 := telemetry.New()
	m2 := telemetry.New()
	m1.Inc(nil, telemetry.CtrInflationsContention)
	m1.Observe(nil, telemetry.HistAcquireSlowNs, 100)
	m2.Add(nil, telemetry.CtrInflationsContention, 2)
	m2.Inc(nil, telemetry.CtrInflationsWait)
	m2.Observe(nil, telemetry.HistAcquireSlowNs, 200)

	merged := m1.Snapshot().Merge(m2.Snapshot())
	if merged.Counter("inflations_contention") != 3 {
		t.Errorf("merged contention = %d, want 3", merged.Counter("inflations_contention"))
	}
	if merged.Inflations() != 4 {
		t.Errorf("merged inflations = %d, want 4", merged.Inflations())
	}
	h := merged.Histograms["acquire_slow_ns"]
	if h.Count != 2 || h.Sum != 300 {
		t.Errorf("merged histogram = %+v", h)
	}

	before := m1.Snapshot()
	m1.Add(nil, telemetry.CtrInflationsContention, 9)
	m1.Observe(nil, telemetry.HistAcquireSlowNs, 50)
	d := m1.Snapshot().Delta(before)
	if d.Counter("inflations_contention") != 9 {
		t.Errorf("delta contention = %d, want 9", d.Counter("inflations_contention"))
	}
	if dh := d.Histograms["acquire_slow_ns"]; dh.Count != 1 || dh.Sum != 50 {
		t.Errorf("delta histogram = %+v", dh)
	}
	// Shrinking counts (after a Reset) clamp to zero, never underflow.
	m1.Reset()
	d = m1.Snapshot().Delta(before)
	if d.Counter("inflations_contention") != 0 {
		t.Errorf("post-reset delta = %d, want 0", d.Counter("inflations_contention"))
	}
}

func TestReset(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	m.Inc(nil, telemetry.CtrNotifies)
	m.Observe(nil, telemetry.HistEntryQueueDepth, 3)
	m.Reset()
	s := m.Snapshot()
	if s.Counter("notifies") != 0 {
		t.Error("counter survived Reset")
	}
	if s.Histograms["entry_queue_depth"].Count != 0 {
		t.Error("histogram survived Reset")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	m.Add(nil, telemetry.CtrVMMonitorEnter, 7)
	m.Observe(nil, telemetry.HistAcquireSlowNs, 12)
	var buf bytes.Buffer
	if err := m.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got telemetry.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got.Counter("vm_monitorenter_ops") != 7 {
		t.Errorf("round-tripped counter = %d, want 7", got.Counter("vm_monitorenter_ops"))
	}
	if got.Histograms["acquire_slow_ns"].Count != 1 {
		t.Error("round-tripped histogram lost its observation")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	m.Add(nil, telemetry.CtrSlowPathEntries, 42)
	m.Observe(nil, telemetry.HistAcquireSlowNs, 10)   // le 15
	m.Observe(nil, telemetry.HistAcquireSlowNs, 1000) // le 1023
	var buf bytes.Buffer
	if err := m.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE thinlock_slow_path_entries_total counter",
		"thinlock_slow_path_entries_total 42",
		"# TYPE thinlock_acquire_slow_ns histogram",
		`thinlock_acquire_slow_ns_bucket{le="15"} 1`,
		`thinlock_acquire_slow_ns_bucket{le="1023"} 2`,
		`thinlock_acquire_slow_ns_bucket{le="+Inf"} 2`,
		"thinlock_acquire_slow_ns_sum 1010",
		"thinlock_acquire_slow_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Every series line must parse as "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	if s := m.Snapshot().String(); !strings.Contains(s, "no telemetry") {
		t.Errorf("empty summary = %q", s)
	}
	m.Inc(nil, telemetry.CtrWaits)
	m.Observe(nil, telemetry.HistMonitorStallNs, 128)
	s := m.Snapshot().String()
	if !strings.Contains(s, "waits") || !strings.Contains(s, "monitor_stall_ns") {
		t.Errorf("summary missing series: %q", s)
	}
}

func TestNowIsMonotonic(t *testing.T) {
	t.Parallel()
	a := telemetry.Now()
	b := telemetry.Now()
	if b < a {
		t.Errorf("Now went backwards: %d then %d", a, b)
	}
}

// TestConcurrentRecordingAndSnapshot hammers one Telemetry from many
// goroutines while snapshots are taken mid-flight; run with -race this
// is the data-race check for the sharded counters.
func TestConcurrentRecordingAndSnapshot(t *testing.T) {
	t.Parallel()
	m := telemetry.New()
	reg := threading.NewRegistry()
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := attach(t, reg, "w")
		wg.Add(1)
		go func(th *threading.Thread) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Inc(th, telemetry.CtrSlowPathEntries)
				m.Observe(th, telemetry.HistAcquireSlowNs, int64(i%1024))
			}
		}(th)
	}
	// Snapshot while mutating: must not race, and counts must be sane.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s := m.Snapshot()
			if s.Counter("slow_path_entries") > workers*per {
				t.Error("snapshot overcounted")
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := m.Snapshot()
	if got := s.Counter("slow_path_entries"); got != workers*per {
		t.Errorf("final count = %d, want %d", got, workers*per)
	}
	if got := s.Histograms["acquire_slow_ns"].Count; got != workers*per {
		t.Errorf("final histogram count = %d, want %d", got, workers*per)
	}
}

// TestGlobalEnableDisable exercises the registration with the
// lock-event path. Not parallel: it owns the global registration
// (parallel tests in this package only start after sequential ones
// finish).
func TestGlobalEnableDisable(t *testing.T) {
	if telemetry.Enabled() {
		t.Fatal("telemetry unexpectedly enabled at test start")
	}
	// Disabled: all emits are no-ops.
	lockevent.Emit(lockevent.MonitorWait, nil, nil)
	lockevent.EmitValue(lockevent.Unpark, nil, nil, 1)

	m := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	if !telemetry.Enabled() || telemetry.Active() != m {
		t.Fatal("Enable did not install the instance")
	}
	for i := 0; i < 3; i++ {
		lockevent.Emit(lockevent.MonitorWait, nil, nil)
	}
	lockevent.EmitValue(lockevent.Unpark, nil, nil, 64)
	if got := m.Counter(telemetry.CtrWaits); got != 3 {
		t.Errorf("enabled emits recorded %d, want 3", got)
	}
	if got := m.Snapshot().Histograms["monitor_stall_ns"].Count; got != 1 {
		t.Errorf("enabled Unpark recorded %d, want 1", got)
	}

	telemetry.Disable()
	lockevent.Emit(lockevent.MonitorWait, nil, nil)
	if got := m.Counter(telemetry.CtrWaits); got != 3 {
		t.Errorf("disabled emit still recorded: %d", got)
	}
	if telemetry.Enabled() {
		t.Error("Disable did not uninstall")
	}
}
