// Package lockprof is a sampled, site-attributed lock contention
// profiler, fed like internal/telemetry by internal/lockevent, the lock
// implementations' one event path.
//
// Where telemetry answers "how much" (global counters and histograms),
// lockprof answers "where" and "which": every sampled slow-path
// acquisition is attributed to a *lock site* — the VM method and
// bytecode pc for interpreter-driven acquisitions (published in the
// acting thread by internal/vm), or the Go caller PC chain captured
// with runtime.Callers for direct library users — and to the lock
// *object* itself. The paper's central distributional claim (a few hot
// objects and sites dominate lock behaviour, Figures 4/5) becomes
// directly observable: per-site and per-object slow-path entries, CAS
// failures, inflations by cause, park time, acquisition delay and hold
// time, with top-N reports and pprof/Prometheus/JSON exports.
//
// The overhead contract matches telemetry's:
//
//   - the profiler consumes no event of the uncontended lock/unlock
//     fast path; with it disabled every emit is one atomic load, a
//     test and a not-taken branch, and allocates nothing (enforced by
//     overhead_test.go);
//   - it consumes only slow-path events. Stack capture — the expensive
//     part — happens only on sampled slow-path entries, rate-limited by
//     a per-thread counter (Config.SampleEvery);
//   - all bookkeeping is lock-free: records live in fixed-size sharded
//     tables of atomic pointers (see table.go), so a hook can never
//     block behind another thread's bookkeeping, and the profiler's
//     memory is bounded no matter how many sites or objects appear.
package lockprof

import (
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// DefaultSampleEvery is the default sampling interval: one in N
// slow-path entries per thread captures a site. Slow-path entries
// include cheap nested acquisitions, so capturing every one would let
// runtime.Callers dominate nesting-heavy workloads; 1-in-8 keeps the
// capture off the common case while a contended run still lands
// hundreds of samples per second.
const DefaultSampleEvery = 8

// Config configures a Profiler.
type Config struct {
	// SampleEvery samples one in N slow-path entries per thread
	// (1 samples every entry; 0 means DefaultSampleEvery).
	SampleEvery int
}

// numSlots is the size of the per-thread attribution slot array.
// Thread indices are dense from 1, so any realistic run maps threads
// to distinct slots; past numSlots concurrent threads, slots alias and
// attribution may mix between the aliased threads (all slot fields are
// atomics, so aliasing is benign for memory safety).
const numSlots = 4096

// threadSlot carries one thread's in-flight attribution state: the
// sampled site/object of the slow-path acquisition currently executing,
// and the most recent sampled acquisition still held (for hold-time
// measurement on the next slow-path unlock).
type threadSlot struct {
	tick atomic.Uint32 // sampling counter

	site atomic.Pointer[SiteRecord]   // in-flight sampled site
	obj  atomic.Pointer[ObjectRecord] // in-flight sampled object

	heldID   atomic.Uint64 // object id of the held sampled acquisition
	heldSite atomic.Pointer[SiteRecord]
	heldObj  atomic.Pointer[ObjectRecord]
	acqNs    atomic.Int64 // when the held acquisition completed

	_ [40]byte // pad to 128 bytes so neighbouring threads do not share lines
}

// Profiler is one set of contention-profile tables. Create with New,
// install globally with Enable; all methods are safe for concurrent
// use.
type Profiler struct {
	sampleEvery uint32
	startNs     int64 // lockevent.Now at creation, for profile duration

	sites siteTable
	objs  objTable
	slots [numSlots]threadSlot
}

// New returns an empty Profiler with the given configuration.
func New(cfg Config) *Profiler {
	se := cfg.SampleEvery
	if se <= 0 {
		se = DefaultSampleEvery
	}
	return &Profiler{
		sampleEvery: uint32(se),
		startNs:     lockevent.Now(),
	}
}

// SampleEvery returns the configured sampling interval.
func (p *Profiler) SampleEvery() int { return int(p.sampleEvery) }

// slot returns the acting thread's attribution slot (slot 0 for nil).
func (p *Profiler) slot(t *threading.Thread) *threadSlot {
	if t == nil {
		return &p.slots[0]
	}
	return &p.slots[int(t.Index())&(numSlots-1)]
}

// SlowPathEnter is called at slow-path entry, before the acquisition
// state machine runs. One in SampleEvery entries per thread is sampled:
// the site is resolved (VM frame if the thread published one, Go caller
// chain otherwise), the site and object records are charged one slow
// entry, and the records are parked in the thread's slot so the other
// hooks (CASFailure, Park, Inflation, SlowPathExit) can attribute to
// them without re-capturing.
func (p *Profiler) SlowPathEnter(t *threading.Thread, o *object.Object) {
	s := p.slot(t)
	if n := s.tick.Add(1); p.sampleEvery > 1 && n%p.sampleEvery != 0 {
		return
	}
	site := p.sites.get(lockevent.Capture(t, 0))
	obj := p.objs.get(o.ID(), o.Class())
	if site != nil {
		site.SlowEntries.Add(1)
	}
	if obj != nil {
		obj.SlowEntries.Add(1)
	}
	s.site.Store(site)
	s.obj.Store(obj)
}

// SlowPathExit is called when the slow-path acquisition completes,
// with the total slow-path latency. It charges the delay to the sampled
// records and rolls the sample over into held state so the next
// slow-path unlock of o by this thread can record hold time.
func (p *Profiler) SlowPathExit(t *threading.Thread, o *object.Object, delayNs int64) {
	s := p.slot(t)
	site := s.site.Load()
	obj := s.obj.Load()
	if site == nil && obj == nil {
		return
	}
	s.site.Store(nil)
	s.obj.Store(nil)
	if delayNs < 0 {
		delayNs = 0
	}
	if site != nil {
		site.DelayNs.Add(uint64(delayNs))
	}
	if obj != nil {
		obj.DelayNs.Add(uint64(delayNs))
	}
	s.heldSite.Store(site)
	s.heldObj.Store(obj)
	s.acqNs.Store(lockevent.Now())
	s.heldID.Store(o.ID())
}

// CASFailure attributes one lock-word CAS retry to the in-flight
// sampled site, if any.
func (p *Profiler) CASFailure(t *threading.Thread) {
	if site := p.slot(t).site.Load(); site != nil {
		site.CASFailures.Add(1)
	}
}

// Park attributes ns of parked (blocked) time to the in-flight sampled
// site and object, if any. Called from the queued-contention park and
// the monitor entry queue.
func (p *Profiler) Park(t *threading.Thread, ns int64) {
	if ns <= 0 {
		return
	}
	s := p.slot(t)
	if site := s.site.Load(); site != nil {
		site.ParkNs.Add(uint64(ns))
	}
	if obj := s.obj.Load(); obj != nil {
		obj.ParkNs.Add(uint64(ns))
	}
}

// siteOf returns the in-flight sampled site, or captures the site of
// an unsampled event (inflations and revocations are rare and recorded
// unconditionally).
func (p *Profiler) siteOf(t *threading.Thread) *SiteRecord {
	if site := p.slot(t).site.Load(); site != nil {
		return site
	}
	return p.sites.get(lockevent.Capture(t, 1))
}

// Inflation records an inflation of o with the given cause. Inflations
// are rare and are the paper's key distributional event, so they are
// recorded unconditionally (not sampled): if no sampled site is in
// flight the site is captured here.
func (p *Profiler) Inflation(t *threading.Thread, o *object.Object, cause InflationCause) {
	if cause >= NumCauses {
		return
	}
	if site := p.siteOf(t); site != nil {
		site.Inflations[cause].Add(1)
	}
	if obj := p.objs.get(o.ID(), o.Class()); obj != nil {
		obj.Inflations.Add(1)
	}
}

// Revocation records a bias revocation of o with the given cause.
// Like inflations, revocations are rare protocol transitions and are
// recorded unconditionally; the acting thread is the one that triggered
// the revocation (the contender for CauseContention, the bias owner for
// CauseWait/CauseOverflow), so the captured site is where the
// reservation was torn down.
func (p *Profiler) Revocation(t *threading.Thread, o *object.Object, cause InflationCause) {
	if cause >= NumCauses {
		return
	}
	if site := p.siteOf(t); site != nil {
		site.Revocations[cause].Add(1)
	}
	if obj := p.objs.get(o.ID(), o.Class()); obj != nil {
		obj.Revocations.Add(1)
	}
}

// UnlockSlow is called from slow-path unlocks. If the thread's held
// sample matches o, the hold time (acquisition to this unlock) is
// charged to the sampled records and the held state cleared. Inflated
// locks always unlock through the slow path, so every sampled contended
// hold is measured; nested fat exits end the measurement at the first
// (not the final) release, which keeps the hook stateless — treat hold
// times as a lower bound under deep nesting.
func (p *Profiler) UnlockSlow(t *threading.Thread, o *object.Object) {
	s := p.slot(t)
	if s.heldID.Load() != o.ID() {
		return
	}
	s.heldID.Store(0)
	ns := lockevent.Now() - s.acqNs.Load()
	if ns < 0 {
		ns = 0
	}
	if site := s.heldSite.Swap(nil); site != nil {
		site.HoldNs.Add(uint64(ns))
	}
	if obj := s.heldObj.Swap(nil); obj != nil {
		obj.HoldNs.Add(uint64(ns))
	}
	// The measured hold also feeds the global hold-time distribution, so
	// windowed hold percentiles (lockscope) exist without per-site math.
	if m := telemetry.Active(); m != nil {
		m.Observe(t, telemetry.HistHoldNs, ns)
	}
}

// Drops reports how many events the bounded tables discarded.
func (p *Profiler) Drops() (sites, objects uint64) {
	return p.sites.drops.Load(), p.objs.drops.Load()
}

// LockEvent implements lockevent.Observer.
func (p *Profiler) LockEvent(k lockevent.Kind, t *threading.Thread, o *object.Object, v int64) {
	switch k {
	case lockevent.SlowEnter:
		p.SlowPathEnter(t, o)
	case lockevent.SlowExit:
		p.SlowPathExit(t, o, v)
	case lockevent.CASFail:
		p.CASFailure(t)
	case lockevent.Unpark:
		p.Park(t, v)
	case lockevent.InflateContention, lockevent.InflateOverflow, lockevent.InflateWait:
		p.Inflation(t, o, InflationCause(k-lockevent.InflateContention))
	case lockevent.RevokeContention, lockevent.RevokeOverflow, lockevent.RevokeWait:
		p.Revocation(t, o, InflationCause(k-lockevent.RevokeContention))
	case lockevent.SlowUnlock:
		p.UnlockSlow(t, o)
	}
}

// consumes is the set of kinds LockEvent records; Sites makes the
// interpreter publish its frames.
var consumes = lockevent.Sites | lockevent.Of(
	lockevent.SlowEnter, lockevent.SlowExit, lockevent.CASFail, lockevent.Unpark,
	lockevent.InflateContention, lockevent.InflateOverflow, lockevent.InflateWait,
	lockevent.RevokeContention, lockevent.RevokeOverflow, lockevent.RevokeWait,
	lockevent.SlowUnlock)

// active is the globally installed Profiler.
var active atomic.Pointer[Profiler]

// Enable installs p as the global lock-event observer (nil disables)
// and returns p.
func Enable(p *Profiler) *Profiler {
	active.Store(p)
	var obs lockevent.Observer // stays nil for a nil p
	if p != nil {
		obs = p
	}
	lockevent.Install(lockevent.SlotProfiler, obs, consumes)
	return p
}

// Disable uninstalls the global observer.
func Disable() { Enable(nil) }

// Active returns the installed Profiler, or nil when disabled.
func Active() *Profiler { return active.Load() }
