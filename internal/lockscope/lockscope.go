// Package lockscope is the continuous time-series layer of the
// observability stack: a background sampler that, at a fixed cadence,
// captures the cumulative telemetry counters and the profiler's
// per-site totals, differences them against the previous capture, and
// publishes one windowed Sample — per-second rates, CAS-failure ratio,
// inflation deltas by cause, acquire/park/hold percentiles
// computed from histogram *deltas*, and the top-K sites active in the
// window — into a fixed-capacity ring that readers (the /debug
// endpoints, lockmon -scope, macrobench timelines) consume without
// blocking the writer.
//
// Everything upstream of this package is cumulative: telemetry answers
// "how much since process start", lockprof answers "where since process
// start". Neither can answer "is contention rising right now, and
// where?" — the question the adaptive spin/park and per-site policy
// work (ROADMAP items 2 and 4) needs answered continuously. The Series
// this package exports is deliberately shaped as that input feed: a
// bounded history of windowed rates plus an EWMA-based anomaly log that
// names the sites responsible for CAS-failure-ratio and park-p99
// spikes.
//
// Overhead contract, same discipline as telemetry/lockprof/lockdep:
// lockscope adds no hook to any lock path at all — the sampler reads
// the already-sharded telemetry cells from its own goroutine, entirely
// off the critical path. Enabled() is one atomic load; with the scope
// disabled (or enabled) the lock fast and slow paths stay exactly as
// allocation-free as they were, enforced by overhead_test.go.
//
// Dependency note: lockprof serves this package's HTTP endpoints, so
// lockscope must not import lockprof. Per-site counts arrive through
// the SiteSource hook, which lockprof installs from an init.
package lockscope

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/telemetry"
)

// Defaults for Config fields left zero.
const (
	DefaultInterval = 250 * time.Millisecond
	DefaultCapacity = 256
	DefaultTopK     = 5
	DefaultAlpha    = 0.25
	DefaultSigma    = 4.0
	DefaultWarmup   = 5
)

// anomalyCapacity bounds the anomaly ring. Anomalies are rare by
// construction (a spike resets the EWMA baseline), so a small ring
// holds far more history than the sample ring it annotates.
const anomalyCapacity = 64

// SiteCount is one site's cumulative contention counters, as supplied
// by the installed SiteSource (internal/lockprof in production). The
// sampler differences consecutive captures keyed by (Label, Kind) to
// derive per-window site activity.
type SiteCount struct {
	Label       string
	Kind        string
	SlowEntries uint64
	CASFailures uint64
	ParkNs      uint64
	DelayNs     uint64
}

// siteSource supplies cumulative per-site counters; nil slices are fine
// (site timelines simply stay empty). Installed once by lockprof's
// init, read per tick.
var siteSource atomic.Pointer[func() []SiteCount]

// SetSiteSource installs the cumulative per-site counter supplier.
func SetSiteSource(f func() []SiteCount) {
	siteSource.Store(&f)
}

// defaultSource captures the globally installed telemetry snapshot and
// the installed site source's counts. With telemetry disabled the
// snapshot is empty and every derived rate is zero.
func defaultSource() (telemetry.Snapshot, []SiteCount) {
	var snap telemetry.Snapshot
	if m := telemetry.Active(); m != nil {
		snap = m.Snapshot()
	}
	var sites []SiteCount
	if f := siteSource.Load(); f != nil && *f != nil {
		sites = (*f)()
	}
	return snap, sites
}

// Config configures a Scope.
type Config struct {
	// Interval is the sampling cadence (default 250ms).
	Interval time.Duration
	// Capacity is the sample ring size in windows (default 256, 64s of
	// history at the default cadence).
	Capacity int
	// TopK is how many sites each sample's timeline keeps (default 5).
	TopK int
	// Alpha is the EWMA smoothing factor of the anomaly detector
	// (default 0.25).
	Alpha float64
	// Sigma is the anomaly threshold in EWMA standard deviations
	// (default 4).
	Sigma float64
	// Warmup is how many windows the detector observes before it may
	// flag (default 5).
	Warmup int
	// Source overrides the capture of cumulative state; nil reads the
	// globally installed telemetry and the SiteSource hook. Tests
	// inject fixtures here.
	Source func() (telemetry.Snapshot, []SiteCount)
	// NowNs overrides the monotonic clock; nil uses telemetry.Now.
	NowNs func() int64
}

// Scope is one running time-series sampler. Create with New, install
// globally with Enable, start the background cadence with Start (or
// drive windows manually with ForceSample). Readers — Series, Since,
// Subscribe — never block the sampler: published samples are immutable
// and reached through atomic pointers.
type Scope struct {
	interval time.Duration
	capacity int
	topK     int
	source   func() (telemetry.Snapshot, []SiteCount)
	nowNs    func() int64

	// ring holds the published samples; head is the count of samples
	// ever published, so sample i lives in ring[i%capacity]. Readers
	// validate Sample.Index after the load, which makes a concurrent
	// wrap-around harmless (the stale slot is simply discarded).
	ring []atomic.Pointer[Sample]
	head atomic.Uint64

	anomalies [anomalyCapacity]atomic.Pointer[Anomaly]
	anHead    atomic.Uint64

	// mu serializes writers only (the ticker goroutine and ForceSample
	// callers); it is never taken on any lock path or by readers.
	mu        sync.Mutex
	prevTel   telemetry.Snapshot
	prevSites map[siteKey]SiteCount
	prevNs    int64
	casDet    ewma
	parkDet   ewma
	alpha     float64
	sigma     float64
	warmup    int

	subMu  sync.Mutex
	subs   map[int]chan Update
	nextID int

	stop chan struct{}
	done chan struct{}
}

type siteKey struct{ label, kind string }

// Update is one published window, delivered to Subscribe channels.
type Update struct {
	Sample Sample
	// Anomalies are the anomalies flagged at this window (usually
	// none); they are also embedded in Sample.Anomalies.
	Anomalies []Anomaly
}

// New returns a Scope and takes the baseline capture: the first sample
// windows from here.
func New(cfg Config) *Scope {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = DefaultSigma
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = DefaultWarmup
	}
	if cfg.Source == nil {
		cfg.Source = defaultSource
	}
	if cfg.NowNs == nil {
		cfg.NowNs = telemetry.Now
	}
	s := &Scope{
		interval: cfg.Interval,
		capacity: cfg.Capacity,
		topK:     cfg.TopK,
		source:   cfg.Source,
		nowNs:    cfg.NowNs,
		ring:     make([]atomic.Pointer[Sample], cfg.Capacity),
		alpha:    cfg.Alpha,
		sigma:    cfg.Sigma,
		warmup:   cfg.Warmup,
		subs:     make(map[int]chan Update),
	}
	tel, sites := s.source()
	s.prevTel = tel
	s.prevSites = indexSites(sites)
	s.prevNs = s.nowNs()
	return s
}

// Interval returns the configured sampling cadence.
func (s *Scope) Interval() time.Duration { return s.interval }

// Capacity returns the sample ring size in windows.
func (s *Scope) Capacity() int { return s.capacity }

// Start launches the background sampler goroutine. Start after Enable
// and Stop before Disable; starting twice panics.
func (s *Scope) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		panic("lockscope: Start called twice")
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.ForceSample()
			}
		}
	}(s.stop, s.done)
}

// Stop halts the background sampler (no-op if never started). The ring
// and its history remain readable.
func (s *Scope) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ForceSample captures one window immediately — the boundary between
// the previous capture and now — publishes it, and returns it. The
// background cadence uses it for every tick; macrobench uses it to
// close a phase at an exact boundary; tests use it to drive windows
// deterministically.
func (s *Scope) ForceSample() Sample {
	s.mu.Lock()
	tel, sites := s.source()
	now := s.nowNs()
	win := now - s.prevNs
	if win <= 0 {
		win = 1
	}
	cur := indexSites(sites)
	sample := derive(tel.Delta(s.prevTel), diffSites(cur, s.prevSites), now, win, s.topK)
	sample.Index = s.head.Load()
	s.prevTel = tel
	s.prevSites = cur
	s.prevNs = now

	fired := s.detect(&sample)
	sample.Anomalies = fired

	// Publish: store the immutable sample, then advance head so readers
	// never see an index without its slot filled.
	sp := new(Sample)
	*sp = sample
	s.ring[sample.Index%uint64(s.capacity)].Store(sp)
	s.head.Add(1)
	for i := range fired {
		a := new(Anomaly)
		*a = fired[i]
		s.anomalies[s.anHead.Load()%anomalyCapacity].Store(a)
		s.anHead.Add(1)
	}
	s.mu.Unlock()

	s.publish(Update{Sample: sample, Anomalies: fired})
	return sample
}

// detect runs the EWMA anomaly detectors against the freshly derived
// sample and returns any anomalies fired this window. Called with mu
// held.
func (s *Scope) detect(sample *Sample) []Anomaly {
	var fired []Anomaly
	for _, d := range []struct {
		det      *ewma
		metric   string
		value    float64
		minValue float64
	}{
		// A CAS-failure ratio below 5% is normal optimistic-retry
		// noise; park p99 under 10µs is scheduler jitter, not a stall.
		{&s.casDet, MetricCASFailRatio, sample.CASFailRatio, 0.05},
		{&s.parkDet, MetricParkP99, float64(sample.ParkP99Ns), 10_000},
	} {
		score, mean, sigma, anomalous := d.det.observe(d.value, s.alpha, s.sigma, s.warmup, d.minValue)
		if !anomalous {
			continue
		}
		a := Anomaly{
			Index:  sample.Index,
			AtNs:   sample.AtNs,
			Metric: d.metric,
			Value:  d.value,
			Mean:   mean,
			Sigma:  sigma,
			Score:  score,
		}
		for _, st := range sample.Sites {
			a.Sites = append(a.Sites, st.Label)
		}
		fired = append(fired, a)
	}
	return fired
}

// Series returns the newest n samples (all retained history if n <= 0)
// oldest first, plus the retained anomaly log. Reads are lock-free:
// samples are immutable once published and a slot overwritten by a
// concurrent wrap is detected by its Index and skipped.
func (s *Scope) Series(n int) Series {
	out := Series{
		IntervalNs: int64(s.interval),
		Capacity:   s.capacity,
		Samples:    s.collect(n, 0),
	}
	h := s.anHead.Load()
	lo := uint64(0)
	if h > anomalyCapacity {
		lo = h - anomalyCapacity
	}
	for i := lo; i < h; i++ {
		if a := s.anomalies[i%anomalyCapacity].Load(); a != nil && a.Index >= lo {
			out.Anomalies = append(out.Anomalies, *a)
		}
	}
	return out
}

// Since returns every retained sample with Index > after, oldest first
// (macrobench's phase cut).
func (s *Scope) Since(after uint64) []Sample {
	return s.collect(0, after+1)
}

// collect gathers up to n newest samples with Index >= min.
func (s *Scope) collect(n int, min uint64) []Sample {
	h := s.head.Load()
	lo := uint64(0)
	if h > uint64(s.capacity) {
		lo = h - uint64(s.capacity)
	}
	if lo < min {
		lo = min
	}
	if n > 0 && h-lo > uint64(n) {
		lo = h - uint64(n)
	}
	if lo >= h {
		return nil
	}
	out := make([]Sample, 0, h-lo)
	for i := lo; i < h; i++ {
		sp := s.ring[i%uint64(s.capacity)].Load()
		if sp == nil || sp.Index != i {
			continue // overwritten by a concurrent wrap
		}
		out = append(out, *sp)
	}
	return out
}

// Subscribe returns a channel of published windows and a cancel
// function. Delivery is best-effort: a subscriber that falls more than
// a small buffer behind misses windows rather than stalling the
// sampler.
func (s *Scope) Subscribe() (<-chan Update, func()) {
	ch := make(chan Update, 16)
	s.subMu.Lock()
	id := s.nextID
	s.nextID++
	s.subs[id] = ch
	s.subMu.Unlock()
	return ch, func() {
		s.subMu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
		s.subMu.Unlock()
	}
}

// publish fans an update out to subscribers, dropping on full buffers.
func (s *Scope) publish(u Update) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- u:
		default:
		}
	}
	s.subMu.Unlock()
}

// indexSites keys cumulative site counts for differencing.
func indexSites(sites []SiteCount) map[siteKey]SiteCount {
	if len(sites) == 0 {
		return nil
	}
	m := make(map[siteKey]SiteCount, len(sites))
	for _, sc := range sites {
		k := siteKey{sc.Label, sc.Kind}
		// Duplicate labels (shouldn't happen post-merge) sum.
		agg := m[k]
		agg.Label, agg.Kind = sc.Label, sc.Kind
		agg.SlowEntries += sc.SlowEntries
		agg.CASFailures += sc.CASFailures
		agg.ParkNs += sc.ParkNs
		agg.DelayNs += sc.DelayNs
		m[k] = agg
	}
	return m
}

// diffSites returns the per-window site deltas (cur minus prev,
// clamped at zero for counters that reset).
func diffSites(cur, prev map[siteKey]SiteCount) []SiteCount {
	if len(cur) == 0 {
		return nil
	}
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	out := make([]SiteCount, 0, len(cur))
	for k, c := range cur {
		p := prev[k]
		d := SiteCount{
			Label:       c.Label,
			Kind:        c.Kind,
			SlowEntries: sub(c.SlowEntries, p.SlowEntries),
			CASFailures: sub(c.CASFailures, p.CASFailures),
			ParkNs:      sub(c.ParkNs, p.ParkNs),
			DelayNs:     sub(c.DelayNs, p.DelayNs),
		}
		if d.SlowEntries == 0 && d.CASFailures == 0 && d.ParkNs == 0 && d.DelayNs == 0 {
			continue
		}
		out = append(out, d)
	}
	return out
}

// active is the globally installed Scope the endpoints and CLIs read.
var active atomic.Pointer[Scope]

// Enable installs s as the global scope (nil disables) and returns s.
func Enable(s *Scope) *Scope {
	active.Store(s)
	return s
}

// Disable uninstalls the global scope. The caller owns stopping it.
func Disable() { active.Store(nil) }

// Active returns the installed Scope, or nil when disabled.
//
//lockvet:noalloc
func Active() *Scope { return active.Load() }

// Enabled reports whether a global Scope is installed — one atomic
// load, the whole disabled-path cost of this package.
//
//lockvet:noalloc
func Enabled() bool { return active.Load() != nil }
