package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"thinlock/internal/bench"
	"thinlock/internal/biased"
	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/lockapi"
	"thinlock/internal/monitorcache"
	"thinlock/internal/telemetry"
)

// The implementations, by their names in bench.StandardImpls. The
// end-to-end metrics cover the first list; the 1998 baselines run in the
// same rounds so that their per-layer reference numbers, and the Figure 5
// speedup, are measured under the same conditions.
var (
	measuredImpls  = []string{"ThinLock", "Biased", "ThinLock-compact"}
	referenceImpls = []string{"JDK111", "IBM112"}
)

const (
	minRounds    = 3 // untraced rounds run even past the time budget
	tracedRounds = 5 // traced rounds per measured implementation
	calibIters   = 2_200_000
	calibNodes   = 60_000
	calibKeys    = 4096
	// tracedShare is the part of the time budget a traced run spends in
	// its untraced phase; the traced rounds follow.
	tracedShare = 0.5
)

// sampleLimit is how long one sample may run before the benchmark gives
// up on it: a lost wakeup or a lock left held by a faulty implementation
// hangs a worker, and the process cannot continue past that.
const sampleLimit = 60 * time.Second

// config is one benchmark invocation on one workload.
type config struct {
	workload workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    float64
}

// sampleRecord is one timed run of the input under one implementation.
type sampleRecord struct {
	Impl          string `json:"impl"`
	Phase         string `json:"phase"`
	Round         int    `json:"round"`
	WallNs        int64  `json:"wall_ns"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	GCCycles      uint32 `json:"gc_cycles"`
	RetainedBytes int64  `json:"retained_bytes"`
	Checksum      string `json:"checksum"`
	Ops           uint64 `json:"ops,omitempty"`
	Error         string `json:"error,omitempty"`
}

// runner holds everything one invocation measures.
type runner struct {
	cfg     config
	impls   []bench.Factory // measured first, then reference
	in      input
	setupS  []float64
	ops     uint64 // Lock calls per sample, from the counting pass
	want    uint64 // checksum every sample must reproduce
	calibMs []float64
	samples []sampleRecord

	// counters sums each implementation's own counters per phase;
	// telem and tracers hold the traced phase's records.
	counters map[string]map[string]float64
	telem    map[string]telemetry.Snapshot
	tracers  map[string]*tracer
}

// lookupImpls resolves names against fs and fails on a missing one.
func lookupImpls(fs []bench.Factory, names ...[]string) ([]bench.Factory, error) {
	var out []bench.Factory
	for _, list := range names {
		for _, n := range list {
			f, ok := bench.Lookup(fs, n)
			if !ok {
				return nil, fmt.Errorf("implementation %q is not in bench.StandardImpls %v", n, bench.Names(fs))
			}
			out = append(out, f)
		}
	}
	return out, nil
}

func newRunner(cfg config, impls []bench.Factory) *runner {
	return &runner{
		cfg:      cfg,
		impls:    impls,
		counters: map[string]map[string]float64{},
		telem:    map[string]telemetry.Snapshot{},
		tracers:  map[string]*tracer{},
	}
}

// run performs the whole measurement: set-up, counting pass, warm-up,
// the untraced rounds (each with another timed set-up) and, when tracing,
// the traced rounds.
func (r *runner) run() error {
	in, err := r.setup()
	if err != nil {
		return err
	}
	r.in = in
	if err := r.count(); err != nil {
		return err
	}
	r.round(-1, "warmup", r.impls)
	budget := r.cfg.seconds
	if r.cfg.trace {
		budget = time.Duration(float64(budget) * tracedShare)
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		r.calibMs = append(r.calibMs, calibrate())
		if _, err := r.setup(); err != nil {
			return err
		}
		r.round(round, "untraced", r.impls)
	}
	if r.cfg.trace {
		measured := r.impls[:len(measuredImpls)]
		for round := 0; round < tracedRounds; round++ {
			r.round(round, "traced", measured)
		}
	}
	return nil
}

// setup times what a sample needs before it can start: generating the
// input (compiling and verifying the MiniJava program for vm-fresh) and
// constructing every implementation. It runs once before the first sample
// and once more in every untraced round, so the reported quartile samples
// the whole run rather than its first milliseconds. Like a sample, it
// starts after runtime.GC().
func (r *runner) setup() (input, error) {
	runtime.GC()
	start := time.Now()
	in, err := r.cfg.workload.build(r.cfg.seed, r.cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", r.cfg.workload.name, err)
	}
	for _, f := range r.impls {
		f.New()
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return in, nil
}

// count runs the input once, untimed, under the first implementation
// wrapped in the counting decorator: its Lock calls are the op count and
// its checksum the one every sample must reproduce.
func (r *runner) count() error {
	tr := newTracer(r.impls[0].Name)
	sum, err := r.in.run(newSample(r.impls[0].New(), tr))
	if err != nil {
		return fmt.Errorf("counting pass: %w", err)
	}
	r.ops = tr.totals().calls[callLock]
	r.want = sum
	if r.ops == 0 {
		return fmt.Errorf("counting pass: %s took no locks", r.cfg.workload.name)
	}
	return nil
}

// round runs one sample of every implementation in fs, starting one
// implementation later each round, so that each runs first, and last,
// equally often.
func (r *runner) round(round int, phase string, fs []bench.Factory) {
	for i := range fs {
		f := fs[(i+max(round, 0))%len(fs)]
		r.samples = append(r.samples, r.sample(f, round, phase))
	}
}

// sample runs the input once under a fresh instance of f. Untraced, the
// workload gets the factory's own Locker and telemetry stays off.
// Traced, the Locker is wrapped in f's timing decorator and telemetry
// records into a fresh instance.
func (r *runner) sample(f bench.Factory, round int, phase string) sampleRecord {
	rec := sampleRecord{Impl: f.Name, Phase: phase, Round: round}
	traced := phase == "traced"
	var ms runtime.MemStats
	var live uint64
	func() {
		l := f.New()
		var tr *tracer
		var tel *telemetry.Telemetry
		var opsBefore uint64
		if traced {
			if r.tracers[f.Name] == nil {
				r.tracers[f.Name] = newTracer(f.Name)
			}
			tr = r.tracers[f.Name]
			opsBefore = tr.totals().calls[callLock]
			tel = telemetry.New()
		}
		s := newSample(l, tr)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		allocBefore, gcBefore := ms.TotalAlloc, ms.NumGC

		watchdog := time.AfterFunc(sampleLimit, func() {
			fmt.Fprintf(os.Stderr, "%s: %s sample did not finish within %v\n", r.cfg.workload.name, f.Name, sampleLimit)
			os.Exit(3)
		})
		if traced {
			telemetry.Enable(tel)
		}
		start := time.Now()
		sum, err := r.in.run(s)
		rec.WallNs = time.Since(start).Nanoseconds()
		telemetry.Disable()
		watchdog.Stop()

		runtime.ReadMemStats(&ms)
		rec.AllocBytes = ms.TotalAlloc - allocBefore
		rec.GCCycles = ms.NumGC - gcBefore
		rec.Checksum = fmt.Sprintf("%016x", sum)
		switch {
		case err != nil:
			rec.Error = err.Error()
		case sum != r.want:
			rec.Error = fmt.Sprintf("checksum %016x, want %016x", sum, r.want)
		}
		if traced {
			rec.Ops = tr.totals().calls[callLock] - opsBefore
			if rec.Error == "" && rec.Ops != r.ops {
				rec.Error = fmt.Sprintf("traced run took %d locks, the counting pass %d", rec.Ops, r.ops)
			}
			r.telem[f.Name] = r.telem[f.Name].Merge(tel.Snapshot())
		}
		r.addCounters(phase, f.Name, l)

		runtime.GC()
		runtime.ReadMemStats(&ms)
		live = ms.HeapAlloc
		runtime.KeepAlive(s)
	}()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rec.RetainedBytes = int64(live) - int64(ms.HeapAlloc)
	return rec
}

// addCounters adds l's own public counters to the phase's totals. An
// implementation that does not keep a counter leaves it absent.
func (r *runner) addCounters(phase, impl string, l lockapi.Locker) {
	key := phase + "/" + impl
	c := r.counters[key]
	if c == nil {
		c = map[string]float64{}
		r.counters[key] = c
	}
	c["samples"]++
	switch l := l.(type) {
	case *core.ThinLocks:
		st := l.Stats()
		c["inflations"] += float64(st.Inflations())
		c["deflations"] += float64(st.Deflations)
		c["table_span"] += float64(st.TableSpan)
	case *biased.Locker:
		st := l.Stats()
		c["inflations"] += float64(st.Inflations())
		// Biased never recycles monitor indices, so its table spans
		// every monitor it allocated.
		c["table_span"] += float64(st.FatLocks)
		c["revocations"] += float64(st.Revocations())
	case *monitorcache.Cache:
		st := l.Stats()
		c["lookups"] += float64(st.Lookups)
		c["misses"] += float64(st.Misses)
	case *hotlocks.HotLocks:
		st := l.Stats()
		c["hot_ops"] += float64(st.HotOps)
		c["cold_ops"] += float64(st.ColdOps)
	}
}

// calibrate times a fixed pure-Go kernel of about 8 ms, in ms. Its median
// over a run scales sample times to reference seconds (see refSeconds);
// its spread says how steady the machine was. The kernel has two parts:
// a dependent chain of register operations, and small allocations linked
// into a list and indexed by a map, with an atomic counter. The first
// part alone follows the host's slow drift; the second follows the
// periods in which a neighbour slows memory and allocation, which slow
// lock code far more than the first part shows (see README.md).
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	m := make(map[uint64]*calibNode, calibKeys/4)
	var head *calibNode
	var n atomic.Uint64
	for i := uint64(0); i < calibNodes; i++ {
		nd := &calibNode{next: head, v: i}
		if i%4 == 0 {
			head = nd
		}
		k := (i * 2654435761) & (calibKeys - 1)
		if old, ok := m[k]; ok {
			n.CompareAndSwap(old.v, nd.v)
		}
		m[k] = nd
		n.Add(1)
	}
	sink += x + n.Load() + head.v
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

type calibNode struct {
	next *calibNode
	v    uint64
}

// sink keeps the calibration loops from being optimised away.
var sink uint64
