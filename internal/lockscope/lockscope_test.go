package lockscope_test

import (
	"strings"
	"testing"
	"time"

	"thinlock/internal/lockscope"
	"thinlock/internal/telemetry"
)

// fixtureSource drives a Scope deterministically: each call returns the
// next scripted cumulative state. The first call feeds New's baseline
// capture, so a script of N+1 states yields N windows.
type fixtureSource struct {
	states []fixtureState
	i      int
	nowNs  int64
}

type fixtureState struct {
	counters map[string]uint64
	stalls   []int64 // monitor_stall_ns observations since process start
	sites    []lockscope.SiteCount
}

func (f *fixtureSource) capture() (telemetry.Snapshot, []lockscope.SiteCount) {
	st := f.states[f.i]
	if f.i < len(f.states)-1 {
		f.i++
	}
	m := telemetry.New()
	for name, v := range st.counters {
		m.Add(nil, counterByName(name), v)
	}
	for _, ns := range st.stalls {
		m.Observe(nil, telemetry.HistMonitorStallNs, ns)
	}
	return m.Snapshot(), st.sites
}

// now advances the injected clock by 250ms per window.
func (f *fixtureSource) now() int64 {
	f.nowNs += 250e6
	return f.nowNs
}

func counterByName(name string) telemetry.Counter {
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if c.Name() == name {
			return c
		}
	}
	panic("unknown counter " + name)
}

func newFixtureScope(t *testing.T, src *fixtureSource, cfg lockscope.Config) *lockscope.Scope {
	t.Helper()
	cfg.Source = src.capture
	cfg.NowNs = src.now
	return lockscope.New(cfg)
}

func TestSampleRatesAndQuantiles(t *testing.T) {
	t.Parallel()
	src := &fixtureSource{states: []fixtureState{
		{counters: map[string]uint64{"slow_path_entries": 0}},
		{
			// One 250ms window with 100 slow entries, 25 CAS failures,
			// 2 contention inflations, 10 parks, and a
			// stall distribution.
			counters: map[string]uint64{
				"slow_path_entries":         100,
				"cas_failures":              25,
				"inflations_contention":     2,
				"queued_parks":              4,
				"monitor_contended_entries": 6,
			},
			stalls: []int64{
				10, 10, 10, 10, 10, 10, 10, 10, 10, // bucket [8,15]
				1000, // bucket [512,1023]
			},
			sites: []lockscope.SiteCount{
				{Label: "hot.site (a.go:1)", Kind: "go", SlowEntries: 60, DelayNs: 500},
				{Label: "warm.site (b.go:2)", Kind: "go", SlowEntries: 40, DelayNs: 100},
			},
		},
	}}
	sc := newFixtureScope(t, src, lockscope.Config{Interval: 250 * time.Millisecond})
	s := sc.ForceSample()

	if s.Index != 0 {
		t.Errorf("first sample index = %d, want 0", s.Index)
	}
	if s.WindowNs != 250e6 {
		t.Errorf("window = %dns, want 250ms", s.WindowNs)
	}
	if s.SlowPerSec != 400 { // 100 entries / 0.25s
		t.Errorf("slow/s = %v, want 400", s.SlowPerSec)
	}
	if s.CASFailPerSec != 100 {
		t.Errorf("casfail/s = %v, want 100", s.CASFailPerSec)
	}
	if s.CASFailRatio != 0.2 { // 25/(25+100)
		t.Errorf("cas ratio = %v, want 0.2", s.CASFailRatio)
	}
	if s.Inflations.Contention != 2 || s.Inflations.Total() != 2 {
		t.Errorf("inflations = %+v, want contention 2", s.Inflations)
	}
	if s.InflationsPerSec != 8 {
		t.Errorf("inflations/s = %v, want 8", s.InflationsPerSec)
	}
	if s.ParksPerSec != 40 { // (4+6)/0.25s
		t.Errorf("parks/s = %v, want 40", s.ParksPerSec)
	}
	if s.ParkP50Ns == 0 || s.ParkP50Ns > 15 {
		t.Errorf("park p50 = %d, want within bucket [8,15]", s.ParkP50Ns)
	}
	if s.ParkP99Ns < 512 || s.ParkP99Ns > 1023 {
		t.Errorf("park p99 = %d, want within bucket [512,1023]", s.ParkP99Ns)
	}
	if len(s.Sites) != 2 || s.Sites[0].Label != "hot.site (a.go:1)" || s.Sites[0].SlowEntries != 60 {
		t.Errorf("sites = %+v, want hot.site first with 60 entries", s.Sites)
	}

	// A second window with no new activity must read as all-idle even
	// though the cumulative counters are unchanged and nonzero.
	idle := sc.ForceSample()
	if idle.SlowPerSec != 0 || idle.CASFailRatio != 0 || len(idle.Sites) != 0 {
		t.Errorf("idle window not zero: %+v", idle)
	}
}

func TestRingRetainsNewestAndSince(t *testing.T) {
	t.Parallel()
	states := []fixtureState{{counters: map[string]uint64{}}}
	for i := 1; i <= 10; i++ {
		states = append(states, fixtureState{
			counters: map[string]uint64{"slow_path_entries": uint64(10 * i)},
		})
	}
	src := &fixtureSource{states: states}
	sc := newFixtureScope(t, src, lockscope.Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		sc.ForceSample()
	}
	series := sc.Series(0)
	if len(series.Samples) != 4 {
		t.Fatalf("ring retained %d samples, want capacity 4", len(series.Samples))
	}
	for i, s := range series.Samples {
		if want := uint64(6 + i); s.Index != want {
			t.Errorf("sample %d index = %d, want %d (newest four, oldest first)", i, s.Index, want)
		}
	}
	if got := sc.Series(2).Samples; len(got) != 2 || got[1].Index != 9 {
		t.Errorf("Series(2) = %d samples ending %d, want 2 ending 9", len(got), got[len(got)-1].Index)
	}
	since := sc.Since(7)
	if len(since) != 2 || since[0].Index != 8 || since[1].Index != 9 {
		t.Errorf("Since(7) indices wrong: %+v", since)
	}
}

// TestAnomalyDetectorFlagsInjectedSpike is the acceptance-criteria
// detector test: a steady contention baseline, then one window whose
// CAS-failure ratio and park p99 both spike, must be flagged with the
// responsible sites attached; the quiet windows must not be.
func TestAnomalyDetectorFlagsInjectedSpike(t *testing.T) {
	t.Parallel()
	var states []fixtureState
	var slow, fail uint64
	var stalls []int64
	states = append(states, fixtureState{counters: map[string]uint64{}})
	// 8 baseline windows: 2% CAS-failure ratio, stalls ~1ms.
	for i := 0; i < 8; i++ {
		slow += 98
		fail += 2
		stalls = append(stalls, 1e6, 1e6, 1e6, 1e6)
		states = append(states, fixtureState{
			counters: map[string]uint64{"slow_path_entries": slow, "cas_failures": fail},
			stalls:   append([]int64(nil), stalls...),
		})
	}
	// Spike window: 60% failure ratio and ~100ms stalls.
	slow += 40
	fail += 60
	stalls = append(stalls, 100e6, 100e6, 100e6, 100e6)
	states = append(states, fixtureState{
		counters: map[string]uint64{"slow_path_entries": slow, "cas_failures": fail},
		stalls:   append([]int64(nil), stalls...),
		sites: []lockscope.SiteCount{
			{Label: "spike.culprit (hot.go:7)", Kind: "go", SlowEntries: 40, CASFailures: 60},
		},
	})
	src := &fixtureSource{states: states}
	sc := newFixtureScope(t, src, lockscope.Config{})

	var flagged []lockscope.Anomaly
	for i := 0; i < 9; i++ {
		s := sc.ForceSample()
		if i < 8 && len(s.Anomalies) != 0 {
			t.Errorf("baseline window %d flagged: %+v", i, s.Anomalies)
		}
		flagged = append(flagged, s.Anomalies...)
	}
	byMetric := map[string]lockscope.Anomaly{}
	for _, a := range flagged {
		byMetric[a.Metric] = a
	}
	cas, ok := byMetric[lockscope.MetricCASFailRatio]
	if !ok {
		t.Fatalf("CAS-failure spike not flagged (got %+v)", flagged)
	}
	if cas.Value < 0.5 || cas.Score <= 0 {
		t.Errorf("cas anomaly = %+v, want value ~0.6 and positive score", cas)
	}
	if len(cas.Sites) == 0 || !strings.Contains(cas.Sites[0], "spike.culprit") {
		t.Errorf("cas anomaly sites = %v, want the culprit site", cas.Sites)
	}
	if _, ok := byMetric[lockscope.MetricParkP99]; !ok {
		t.Errorf("park-p99 spike not flagged (got %+v)", flagged)
	}
	// The anomaly log in the series must carry the same record.
	series := sc.Series(0)
	if len(series.Anomalies) != len(flagged) {
		t.Errorf("series anomaly log has %d entries, want %d", len(series.Anomalies), len(flagged))
	}
}

func TestSubscribeDeliversPublishedWindows(t *testing.T) {
	t.Parallel()
	src := &fixtureSource{states: []fixtureState{
		{counters: map[string]uint64{}},
		{counters: map[string]uint64{"slow_path_entries": 50}},
	}}
	sc := newFixtureScope(t, src, lockscope.Config{})
	ch, cancel := sc.Subscribe()
	sc.ForceSample()
	select {
	case u := <-ch:
		if u.Sample.Index != 0 || u.Sample.SlowPerSec != 200 {
			t.Errorf("update = %+v, want index 0 at 200 slow/s", u.Sample)
		}
	case <-time.After(time.Second):
		t.Fatal("no update delivered")
	}
	cancel()
	if _, open := <-ch; open {
		t.Error("channel not closed after cancel")
	}
	// A second cancel is a no-op, and sampling after cancel must not
	// panic on the closed channel.
	cancel()
	sc.ForceSample()
}

// TestBackgroundSamplerPublishes exercises Start/Stop with the real
// clock: the default source against the installed global telemetry.
// Not parallel: owns the global telemetry registration.
func TestBackgroundSamplerPublishes(t *testing.T) {
	m := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	sc := lockscope.Enable(lockscope.New(lockscope.Config{Interval: 5 * time.Millisecond}))
	defer lockscope.Disable()
	sc.Start()
	defer sc.Stop()

	m.Add(nil, telemetry.CtrSlowPathEntries, 1000)
	deadline := time.After(3 * time.Second)
	for {
		series := sc.Series(0)
		if len(series.Samples) >= 2 {
			var nonzero int
			for _, s := range series.Samples {
				if s.SlowPerSec > 0 {
					nonzero++
				}
			}
			if nonzero >= 1 {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatalf("sampler published %d samples, want >=2 with activity", len(series.Samples))
		case <-time.After(5 * time.Millisecond):
		}
	}
	sc.Stop()
	// Stop twice is a no-op; the ring stays readable.
	if len(sc.Series(0).Samples) == 0 {
		t.Error("series unreadable after Stop")
	}
}

func TestSparkline(t *testing.T) {
	t.Parallel()
	if got := lockscope.Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := lockscope.Sparkline([]float64{0, 1, 2, 4})
	if want := "▁▂▄█"; got != want {
		t.Errorf("sparkline = %q, want %q", got, want)
	}
	if got := lockscope.Sparkline([]float64{0, 0}); got != "▁▁" {
		t.Errorf("flat sparkline = %q, want lowest blocks", got)
	}
}
