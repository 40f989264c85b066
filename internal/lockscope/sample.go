package lockscope

import (
	"sort"

	"thinlock/internal/telemetry"
)

// Metric names used by the anomaly detector and exports.
const (
	MetricCASFailRatio = "cas_fail_ratio"
	MetricParkP99      = "park_p99_ns"
)

// SiteSample is one site's activity inside a single window (deltas, not
// cumulative totals).
type SiteSample struct {
	Label       string `json:"label"`
	Kind        string `json:"kind"`
	SlowEntries uint64 `json:"slow_entries"`
	CASFailures uint64 `json:"cas_failures,omitempty"`
	ParkNs      uint64 `json:"park_ns,omitempty"`
	DelayNs     uint64 `json:"delay_ns,omitempty"`
}

// InflationDeltas is the per-cause inflation count inside one window.
type InflationDeltas struct {
	Contention uint64 `json:"contention"`
	Overflow   uint64 `json:"overflow"`
	Wait       uint64 `json:"wait"`
}

// Total sums the causes.
func (d InflationDeltas) Total() uint64 { return d.Contention + d.Overflow + d.Wait }

// Sample is one published window: rates per second derived from counter
// deltas, percentiles derived from histogram-bucket deltas, and the
// top-K sites active in the window. Samples are immutable once
// published; field order is the canonical JSON/CSV column order.
type Sample struct {
	// Index is the sample's position in the scope's lifetime (0-based,
	// monotonic; the ring retains the newest Capacity of them).
	Index uint64 `json:"index"`
	// AtNs is the window's end, in monotonic nanoseconds since process
	// start (telemetry.Now).
	AtNs int64 `json:"at_ns"`
	// WindowNs is the measured window duration (nominally the sampling
	// interval; ForceSample cuts shorter windows).
	WindowNs int64 `json:"window_ns"`

	// SlowPerSec is the slow-path entry rate.
	SlowPerSec float64 `json:"slow_per_sec"`
	// CASFailPerSec is the lock-word CAS retry rate.
	CASFailPerSec float64 `json:"cas_fail_per_sec"`
	// CASFailRatio is failed CAS attempts over all slow-path CAS
	// attempts in the window, failures/(failures+entries) — bounded
	// [0,1), rising toward 1 as the lock word thrashes.
	CASFailRatio float64 `json:"cas_fail_ratio"`
	// Inflations are the window's inflation counts by cause.
	Inflations InflationDeltas `json:"inflations"`
	// InflationsPerSec is the total inflation rate.
	InflationsPerSec float64 `json:"inflations_per_sec"`
	// ParksPerSec is the rate of contenders blocking (queued parks plus
	// monitor contended entries).
	ParksPerSec float64 `json:"parks_per_sec"`

	// AcquireP50Ns/AcquireP99Ns are slow-path acquisition latency
	// percentiles over this window's observations only (histogram
	// deltas, interpolated — see telemetry.HistSnapshot.Quantile).
	AcquireP50Ns uint64 `json:"acquire_p50_ns"`
	AcquireP99Ns uint64 `json:"acquire_p99_ns"`
	// ParkP50Ns/ParkP99Ns are monitor entry-queue stall percentiles
	// over this window.
	ParkP50Ns uint64 `json:"park_p50_ns"`
	ParkP99Ns uint64 `json:"park_p99_ns"`
	// HoldP50Ns/HoldP99Ns are sampled contended hold-time percentiles
	// over this window (populated while lockprof is enabled).
	HoldP50Ns uint64 `json:"hold_p50_ns"`
	HoldP99Ns uint64 `json:"hold_p99_ns"`

	// Sites are the top-K sites by slow entries in this window,
	// descending, ties broken by delay then label.
	Sites []SiteSample `json:"sites,omitempty"`
	// Anomalies flagged at this window, if any.
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

// Anomaly is one detector firing: metric's value left the EWMA band.
type Anomaly struct {
	// Index/AtNs locate the window that fired.
	Index uint64 `json:"index"`
	AtNs  int64  `json:"at_ns"`
	// Metric is MetricCASFailRatio or MetricParkP99.
	Metric string `json:"metric"`
	// Value is the window's observed value; Mean and Sigma are the
	// EWMA baseline it was judged against (state *before* this window).
	Value float64 `json:"value"`
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
	// Score is (Value-Mean)/Sigma.
	Score float64 `json:"score"`
	// Sites are the labels of the window's top sites — the likely
	// culprits.
	Sites []string `json:"sites,omitempty"`
}

// Series is a bounded slice of history: what /debug/lockscope/series
// returns and what the future policy engine will consume.
type Series struct {
	// IntervalNs is the nominal sampling cadence.
	IntervalNs int64 `json:"interval_ns"`
	// Capacity is the ring size (max retained samples).
	Capacity int `json:"capacity"`
	// Samples are oldest first.
	Samples []Sample `json:"samples"`
	// Anomalies is the retained anomaly log, oldest first.
	Anomalies []Anomaly `json:"anomalies"`
}

// derive turns one window's telemetry delta and site deltas into a
// Sample (Index and Anomalies are filled by the caller).
func derive(d telemetry.Snapshot, sites []SiteCount, atNs, windowNs int64, topK int) Sample {
	perSec := func(n uint64) float64 {
		return float64(n) / (float64(windowNs) / 1e9)
	}
	slow := d.Counter("slow_path_entries")
	casFail := d.Counter("cas_failures")
	s := Sample{
		AtNs:          atNs,
		WindowNs:      windowNs,
		SlowPerSec:    perSec(slow),
		CASFailPerSec: perSec(casFail),
		Inflations: InflationDeltas{
			Contention: d.Counter("inflations_contention"),
			Overflow:   d.Counter("inflations_overflow"),
			Wait:       d.Counter("inflations_wait"),
		},
		ParksPerSec: perSec(d.Counter("queued_parks") + d.Counter("monitor_contended_entries")),
	}
	if casFail+slow > 0 {
		s.CASFailRatio = float64(casFail) / float64(casFail+slow)
	}
	s.InflationsPerSec = perSec(s.Inflations.Total())

	quant := func(name string) (p50, p99 uint64) {
		h := d.Histograms[name]
		return h.Quantile(0.5), h.Quantile(0.99)
	}
	s.AcquireP50Ns, s.AcquireP99Ns = quant("acquire_slow_ns")
	s.ParkP50Ns, s.ParkP99Ns = quant("monitor_stall_ns")
	s.HoldP50Ns, s.HoldP99Ns = quant("hold_ns")

	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.SlowEntries != b.SlowEntries {
			return a.SlowEntries > b.SlowEntries
		}
		if a.DelayNs != b.DelayNs {
			return a.DelayNs > b.DelayNs
		}
		return a.Label < b.Label
	})
	if len(sites) > topK {
		sites = sites[:topK]
	}
	for _, sc := range sites {
		s.Sites = append(s.Sites, SiteSample{
			Label:       sc.Label,
			Kind:        sc.Kind,
			SlowEntries: sc.SlowEntries,
			CASFailures: sc.CASFailures,
			ParkNs:      sc.ParkNs,
			DelayNs:     sc.DelayNs,
		})
	}
	return s
}
