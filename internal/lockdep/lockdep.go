// Package lockdep is a runtime lock-order watchdog in the spirit of the
// Linux kernel's lockdep, layered on the same hook discipline as
// internal/telemetry and internal/lockprof.
//
// Where telemetry answers "how much" and lockprof answers "where",
// lockdep answers "can this hang, and if it already has, why": it
//
//   - maintains a per-thread stack of held locks and folds every
//     observed nesting pair (held A while acquiring B) into a global
//     lock-order graph keyed by lock *object*, with lockprof-style site
//     annotations on the edges. The first time the inverse order of an
//     existing edge appears — from a different thread — the resulting
//     cycle is reported as a *potential* deadlock (an ABBA inversion),
//     even if no hang ever occurs;
//   - maintains a live wait-for state fed from the slow paths of the
//     lock implementations (thin-lock spinning, the queued-contention
//     park, fat-monitor entry, bias revocation, and Object.wait), with
//     an on-demand cycle detector that names the deadlocked threads,
//     the sites they hold and the site each blocks on;
//   - keeps a flight recorder: a fixed ring of recent lock events that
//     a stall watchdog (see watchdog.go) dumps together with the
//     current holders and wait-for edges when any wait exceeds a
//     threshold, so a hang is diagnosable post mortem.
//
// The overhead contract matches telemetry's and lockprof's: the
// uncontended fast paths carry no lockdep hook at all; with lockdep
// disabled every hook site is one atomic pointer load, a compare and a
// not-taken branch, and allocates nothing (enforced by
// overhead_test.go). Enabled, the steady state (known sites, known
// edges) is allocation-free too; only the first observation of a site
// or an order edge allocates its record.
//
// Unlike lockprof, acquisitions are not sampled: the order graph is
// only sound if every nested acquisition is folded in, so an enabled
// lockdep captures a call-site on every first (non-nested) acquisition.
// That makes it a diagnosis tool to switch on, not an always-on
// profiler — which is exactly the kernel-lockdep trade-off.
//
// The order graph is keyed by object, not by site: a single
// transfer(a, b) call site passed (x, y) by one thread and (y, x) by
// another is invisible to a site-pair graph but is precisely the ABBA
// hang lockdep exists to catch. Sites annotate the edges for reporting.
// A cycle whose edges were all contributed by one thread cannot
// deadlock (one thread cannot block on itself through intact nesting)
// and is suppressed, not reported; the suppression is re-examined when
// a second thread later contributes to any of its edges.
package lockdep

import (
	"sync/atomic"

	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// numSlots is the size of the per-thread state array, indexed by the
// thread's attach serial modulo numSlots. Unlike the thread index, the
// serial differs between registries, so threads of two registries that
// share an index (parallel tests, two runtimes) keep separate held
// stacks. Two live threads attached a multiple of numSlots attaches
// apart still alias and attribution may mix (all fields are atomics,
// so aliasing is benign for memory safety).
const numSlots = 4096

// maxHeld bounds the per-thread held-lock stack. Deeper nesting than
// this is counted in a drop counter and the over-deep locks simply go
// untracked (the paper's workloads nest a handful of monitors at most).
const maxHeld = 16

// WaitKind classifies why a thread is blocked on an object.
type WaitKind uint32

const (
	// WaitNone marks a thread that is not blocked.
	WaitNone WaitKind = iota
	// WaitSpin is a thread spinning for a thin lock held by another
	// thread (§2.3.4 of the paper).
	WaitSpin
	// WaitQueued is a thread parked on the flat-lock-contention queue
	// (the queued-inflation extension).
	WaitQueued
	// WaitFat is a thread entering a fat monitor that may be owned.
	WaitFat
	// WaitRevocation is a thread waiting out a bias-revocation
	// handshake.
	WaitRevocation
	// WaitCond is a thread in Object.wait (released the lock, waiting
	// for a notify and then the re-acquisition).
	WaitCond
)

// String returns the report label for the kind.
func (k WaitKind) String() string {
	switch k {
	case WaitNone:
		return "none"
	case WaitSpin:
		return "spin"
	case WaitQueued:
		return "queued-park"
	case WaitFat:
		return "monitor-enter"
	case WaitRevocation:
		return "bias-revocation"
	case WaitCond:
		return "cond-wait"
	default:
		return "unknown"
	}
}

// heldEntry is one held lock on a thread's stack. All fields are
// atomics because the wait-for detector and the watchdog read other
// threads' stacks while the owner mutates them; a torn read can at
// worst duplicate or miss an entry, which detection revalidates.
type heldEntry struct {
	obj  atomic.Pointer[object.Object]
	n    atomic.Uint32 // recursion depth at this entry
	site atomic.Uint32 // site id of the first acquisition
}

// threadSlot is one thread's lockdep state: held stack, wait-for state
// and the saved depth of an in-progress Object.wait.
type threadSlot struct {
	thr atomic.Pointer[threading.Thread]

	heldLen  atomic.Uint32
	held     [maxHeld]heldEntry
	overflow atomic.Uint32 // pushes dropped because the stack was full

	waitObj   atomic.Pointer[object.Object]
	waitKind  atomic.Uint32
	waitSite  atomic.Uint32
	waitStart atomic.Int64
	waitSeq   atomic.Uint64 // bumped per distinct blocking episode

	condObj   atomic.Pointer[object.Object]
	condDepth atomic.Uint32
	condSite  atomic.Uint32
}

// Config configures a Lockdep instance. The zero value is valid.
type Config struct{}

// Lockdep is one lock-order tracking state. Create with New, install
// globally with Enable; all methods are safe for concurrent use.
type Lockdep struct {
	startNs int64

	sites siteTable
	graph graph
	ring  ring
	slots [numSlots]threadSlot

	heldOverflows atomic.Uint64
}

// New returns an empty Lockdep with the given configuration.
func New(cfg Config) *Lockdep {
	_ = cfg
	return &Lockdep{startNs: telemetry.Now()}
}

// slot returns the acting thread's state slot (slot 0 for nil).
func (d *Lockdep) slot(t *threading.Thread) *threadSlot {
	if t == nil {
		return &d.slots[0]
	}
	return &d.slots[t.Serial()&(numSlots-1)]
}

func (s *threadSlot) noteThread(t *threading.Thread) {
	if t != nil && s.thr.Load() != t {
		s.thr.Store(t)
	}
}

// Acquired records that t now owns o. Called by the lock
// implementations after every successful Lock. A re-acquisition of an
// already-held object only bumps its recursion count; a first
// acquisition captures the call site, pushes a held entry, folds one
// order edge per other held lock into the graph, and clears any
// wait-for state the slow path recorded on the way in.
func (d *Lockdep) Acquired(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	s.noteThread(t)
	if s.waitObj.Load() != nil {
		s.waitObj.Store(nil)
		s.waitKind.Store(uint32(WaitNone))
	}
	n := s.heldLen.Load()
	if n > maxHeld {
		n = maxHeld
	}
	for i := uint32(0); i < n; i++ {
		if s.held[i].obj.Load() == o {
			s.held[i].n.Add(1)
			return
		}
	}
	site := d.captureSite(t)
	d.ring.record(EvAcquire, t, o, site, 0)
	if n >= maxHeld {
		s.overflow.Add(1)
		d.heldOverflows.Add(1)
		return
	}
	e := &s.held[n]
	e.obj.Store(o)
	e.n.Store(1)
	e.site.Store(site)
	s.heldLen.Store(n + 1)
	for i := uint32(0); i < n; i++ {
		d.graph.addEdge(d, &s.held[i], o, site, t)
	}
}

// Released records that t released one level of o. The final release
// pops the held entry (order within the stack does not matter once the
// edges are folded, so the pop swaps with the last entry).
func (d *Lockdep) Released(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	n := s.heldLen.Load()
	if n > maxHeld {
		n = maxHeld
	}
	for i := int(n) - 1; i >= 0; i-- {
		if s.held[i].obj.Load() != o {
			continue
		}
		if c := s.held[i].n.Load(); c > 1 {
			s.held[i].n.Store(c - 1)
			return
		}
		last := n - 1
		if uint32(i) != last {
			s.held[i].obj.Store(s.held[last].obj.Load())
			s.held[i].n.Store(s.held[last].n.Load())
			s.held[i].site.Store(s.held[last].site.Load())
		}
		s.held[last].obj.Store(nil)
		s.heldLen.Store(last)
		d.ring.record(EvRelease, t, o, 0, 0)
		return
	}
	// Not on the stack: either the push was dropped on overflow, or
	// lockdep was enabled after the acquisition. Burn an overflow
	// credit if one exists so the counters stay roughly honest.
	if c := s.overflow.Load(); c > 0 {
		s.overflow.Store(c - 1)
	}
}

// Blocked records that t is about to block (or spin) on o. Called from
// the slow paths; may be called repeatedly while a spin loop retries,
// in which case the original start time is kept so stall durations are
// measured from the first report. The wait state is cleared by the
// Acquired that ends the episode (or by Unblocked on non-acquiring
// paths).
func (d *Lockdep) Blocked(t *threading.Thread, o *object.Object, kind WaitKind) {
	s := d.slot(t)
	if s.waitObj.Load() == o && WaitKind(s.waitKind.Load()) == kind {
		return
	}
	s.noteThread(t)
	site := d.captureSite(t)
	s.waitSite.Store(site)
	s.waitKind.Store(uint32(kind))
	s.waitStart.Store(telemetry.Now())
	s.waitSeq.Add(1)
	s.waitObj.Store(o)
	d.ring.record(EvBlocked, t, o, site, uint32(kind))
}

// Unblocked clears t's wait-for state on paths that do not end in an
// acquisition (e.g. waiting out a bias revocation during an unlock).
func (d *Lockdep) Unblocked(t *threading.Thread) {
	s := d.slot(t)
	if s.waitObj.Load() != nil {
		s.waitObj.Store(nil)
		s.waitKind.Store(uint32(WaitNone))
	}
}

// CondWaitBegin records that t entered Object.wait on o: the held
// entry for o (at whatever recursion depth) leaves the stack — the
// monitor is released for the duration of the wait, and leaving it on
// the stack would fabricate wait-for edges pointing at a thread that
// holds nothing — and the thread is marked waiting on o.
func (d *Lockdep) CondWaitBegin(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	s.noteThread(t)
	n := s.heldLen.Load()
	if n > maxHeld {
		n = maxHeld
	}
	for i := uint32(0); i < n; i++ {
		if s.held[i].obj.Load() != o {
			continue
		}
		s.condObj.Store(o)
		s.condDepth.Store(s.held[i].n.Load())
		s.condSite.Store(s.held[i].site.Load())
		last := n - 1
		if i != last {
			s.held[i].obj.Store(s.held[last].obj.Load())
			s.held[i].n.Store(s.held[last].n.Load())
			s.held[i].site.Store(s.held[last].site.Load())
		}
		s.held[last].obj.Store(nil)
		s.heldLen.Store(last)
		break
	}
	site := d.captureSite(t)
	s.waitSite.Store(site)
	s.waitKind.Store(uint32(WaitCond))
	s.waitStart.Store(telemetry.Now())
	s.waitSeq.Add(1)
	s.waitObj.Store(o)
	d.ring.record(EvCondWait, t, o, site, uint32(WaitCond))
}

// CondWaitEnd records that t's Object.wait on o returned (notified,
// timed out, interrupted, or refused with an error): the wait state is
// cleared and, if CondWaitBegin removed a held entry, it is restored at
// its saved depth. The restore folds no new order edges — the original
// acquisition already did.
func (d *Lockdep) CondWaitEnd(t *threading.Thread, o *object.Object) {
	s := d.slot(t)
	if s.waitObj.Load() == o {
		s.waitObj.Store(nil)
		s.waitKind.Store(uint32(WaitNone))
	}
	if s.condObj.Load() != o {
		return
	}
	s.condObj.Store(nil)
	n := s.heldLen.Load()
	if n >= maxHeld {
		s.overflow.Add(1)
		d.heldOverflows.Add(1)
		return
	}
	e := &s.held[n]
	e.obj.Store(o)
	e.n.Store(s.condDepth.Load())
	e.site.Store(s.condSite.Load())
	s.heldLen.Store(n + 1)
	d.ring.record(EvCondWake, t, o, s.condSite.Load(), 0)
}

// Stats is a snapshot of lockdep's internal counters.
type Stats struct {
	// Nodes and Edges size the lock-order graph.
	Nodes, Edges int
	// Inversions counts reported lock-order inversion cycles.
	Inversions int
	// SingleThreadCycles counts order cycles observed but suppressed
	// because every edge came from one thread.
	SingleThreadCycles uint64
	// SiteDrops / NodeDrops / EdgeDrops / ReportDrops count events the
	// bounded tables discarded.
	SiteDrops, NodeDrops, EdgeDrops, ReportDrops uint64
	// HeldOverflows counts held-stack pushes dropped at maxHeld depth.
	HeldOverflows uint64
	// Events is the flight-recorder sequence number (total events ever
	// recorded; the ring keeps the most recent RingSize).
	Events uint64
}

// Stats returns a snapshot of the counters.
func (d *Lockdep) Stats() Stats {
	nodes, edges := d.graph.size()
	return Stats{
		Nodes:              nodes,
		Edges:              edges,
		Inversions:         len(d.Inversions()),
		SingleThreadCycles: d.graph.singleThread.Load(),
		SiteDrops:          d.sites.drops.Load(),
		NodeDrops:          d.graph.nodeDrops.Load(),
		EdgeDrops:          d.graph.edgeDrops.Load(),
		ReportDrops:        d.graph.reportDrops.Load(),
		HeldOverflows:      d.heldOverflows.Load(),
		Events:             d.ring.seq.Load(),
	}
}

// active is the globally installed Lockdep the hook helpers feed.
var active atomic.Pointer[Lockdep]

// Enable installs d as the global hook target (nil disables) and
// returns d.
func Enable(d *Lockdep) *Lockdep {
	active.Store(d)
	return d
}

// Disable uninstalls the global hook target.
func Disable() { active.Store(nil) }

// Active returns the installed Lockdep, or nil when disabled.
func Active() *Lockdep { return active.Load() }

// Enabled reports whether a global Lockdep is installed.
func Enabled() bool { return active.Load() != nil }

// Blocked records a blocking episode on the installed Lockdep; a no-op
// (one atomic load, one branch, no allocation) when disabled.
func Blocked(t *threading.Thread, o *object.Object, kind WaitKind) {
	if d := active.Load(); d != nil {
		d.Blocked(t, o, kind)
	}
}

// Unblocked clears a blocking episode on the installed Lockdep; no-op
// when disabled.
func Unblocked(t *threading.Thread) {
	if d := active.Load(); d != nil {
		d.Unblocked(t)
	}
}
