package lockdep

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// The lock-order graph. Nodes are lock objects, matched by identity and
// hashed and labelled by allocation id (ids restart at 1 in every heap,
// so two heaps' objects can share one); a directed edge A→B means "some
// thread held A while acquiring B". Kernel lockdep's central trick
// applies: edges are *ever-observed* facts, never removed, so a cycle
// proves that the inverse orders both happened at least once — a
// potential ABBA deadlock — even if the two orders were never in flight
// simultaneously.
//
// Storage follows lockprof's bounded lock-free shape: nodes live in a
// sharded open-addressed table of atomic pointers; each node carries a
// small fixed array of outgoing edges, CAS-appended. Cycle detection
// runs only when an edge is first observed (or first becomes
// multi-threaded), serialized by a mutex — a rare event, off every per-
// acquisition path.

const (
	numShards         = 16
	nodeSlotsPerShard = 256 // 4096 nodes total
	nodeProbe         = 64
	// maxOut bounds a node's outgoing order edges.
	maxOut = 32
	// maxReports bounds stored inversion reports.
	maxReports = 64
	// maxCycleLen bounds the DFS depth (and so reported cycle length).
	maxCycleLen = 32
)

// gedge is one order edge. The first observing thread is recorded so
// single-thread cycles can be suppressed; multi flips (permanently)
// when a second thread observes the same nesting pair. The observer is
// identified by Thread pointer, not index: the registry recycles
// indices, so two sequential threads can share one — and inverse orders
// from two threads are a real hazard even when their lifetimes never
// overlapped.
type gedge struct {
	from, to *gnode
	holdSite uint32 // site where `from` was acquired by the first observer
	acqSite  uint32 // site where `to` was acquired while holding `from`
	thread   *threading.Thread
	threadNm string
	multi    atomic.Bool
}

// threads reports how many distinct threads the edge is known to have:
// 1, or 2 meaning "at least two".
func (e *gedge) threads() int {
	if e.multi.Load() {
		return 2
	}
	return 1
}

// gnode is one lock object in the order graph.
type gnode struct {
	obj   *object.Object
	id    uint64
	class string
	out   [maxOut]atomic.Pointer[gedge]
	// mark is the DFS visit stamp, guarded by graph.mu.
	mark uint64
}

func (n *gnode) label() string {
	c := n.class
	if c == "" {
		c = "object"
	}
	return fmt.Sprintf("%s#%d", c, n.id)
}

type nodeShard struct {
	slots [nodeSlotsPerShard]atomic.Pointer[gnode]
}

// graph is the sharded lock-order graph plus the inversion reports.
type graph struct {
	shards    [numShards]nodeShard
	nodeDrops atomic.Uint64
	edgeDrops atomic.Uint64
	edgeCount atomic.Uint64

	// mu serializes cycle detection, DFS marks and report insertion.
	mu    sync.Mutex
	stamp uint64

	reports      [maxReports]atomic.Pointer[InversionReport]
	reportLen    atomic.Uint32
	reportDrops  atomic.Uint64
	singleThread atomic.Uint64
}

// nodeHash mixes an object id (a SplitMix64 finalizer round).
func nodeHash(id uint64) uint64 {
	id ^= id >> 30
	id *= 0xbf58476d1ce4e5b9
	id ^= id >> 27
	id *= 0x94d049bb133111eb
	id ^= id >> 31
	return id
}

// node returns the graph node for o, inserting one if needed; nil when
// the probe window is full.
func (g *graph) node(o *object.Object) *gnode {
	h := nodeHash(o.ID())
	sh := &g.shards[(h>>60)&(numShards-1)]
	idx := h & (nodeSlotsPerShard - 1)
	for i := uint64(0); i < nodeProbe; i++ {
		slot := &sh.slots[(idx+i)&(nodeSlotsPerShard-1)]
		n := slot.Load()
		if n == nil {
			nn := &gnode{obj: o, id: o.ID(), class: o.Class()}
			if slot.CompareAndSwap(nil, nn) {
				return nn
			}
			n = slot.Load()
		}
		if n.obj == o {
			return n
		}
	}
	g.nodeDrops.Add(1)
	return nil
}

// addEdge folds "held `from` while acquiring o at acqSite" into the
// graph and runs cycle detection when the edge is new or when it just
// became multi-threaded.
func (g *graph) addEdge(d *Lockdep, from *heldEntry, o *object.Object, acqSite uint32, t *threading.Thread) {
	fObj := from.obj.Load()
	if fObj == nil || fObj == o {
		return
	}
	fn := g.node(fObj)
	tn := g.node(o)
	if fn == nil || tn == nil {
		return
	}
	for i := 0; i < maxOut; i++ {
		e := fn.out[i].Load()
		if e == nil {
			ne := &gedge{
				from:     fn,
				to:       tn,
				holdSite: from.site.Load(),
				acqSite:  acqSite,
				thread:   t,
				threadNm: threadName(t),
			}
			if fn.out[i].CompareAndSwap(nil, ne) {
				g.edgeCount.Add(1)
				g.checkCycle(d, ne)
				return
			}
			e = fn.out[i].Load()
		}
		if e.to == tn {
			if e.thread != t && !e.multi.Load() {
				e.multi.Store(true)
				// The edge's thread signature changed: a cycle through
				// it that was suppressed as single-threaded may now be
				// reportable.
				g.checkCycle(d, e)
			}
			return
		}
	}
	g.edgeDrops.Add(1)
}

func threadName(t *threading.Thread) string {
	if t == nil {
		return "?"
	}
	return fmt.Sprintf("%s#%d", t.Name(), t.Index())
}

// checkCycle looks for a path to.from⇝e.from; appending e closes a
// cycle, i.e. the inverse of an already-recorded order has now been
// observed. Runs under g.mu; rare (first observation of an edge only).
func (g *graph) checkCycle(d *Lockdep, e *gedge) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stamp++
	path := make([]*gedge, 0, 8)
	cycle := g.dfs(e.to, e.from, path)
	if cycle == nil {
		return
	}
	cycle = append(cycle, e)
	// A cycle all of whose edges came from a single thread cannot
	// deadlock: the thread established both orders itself, in sequence.
	distinct := map[*threading.Thread]bool{}
	multi := false
	for _, ce := range cycle {
		distinct[ce.thread] = true
		if ce.multi.Load() {
			multi = true
		}
	}
	if len(distinct) < 2 && !multi {
		g.singleThread.Add(1)
		return
	}
	g.report(d, cycle)
}

// dfs searches from cur for target along outgoing edges, returning the
// edge path (nil if unreachable). Visit marks use the per-check stamp
// so no per-node clearing is needed.
func (g *graph) dfs(cur, target *gnode, path []*gedge) []*gedge {
	if cur == target {
		out := make([]*gedge, len(path))
		copy(out, path)
		return out
	}
	if cur.mark == g.stamp || len(path) >= maxCycleLen {
		return nil
	}
	cur.mark = g.stamp
	for i := 0; i < maxOut; i++ {
		e := cur.out[i].Load()
		if e == nil {
			break
		}
		if found := g.dfs(e.to, target, append(path, e)); found != nil {
			return found
		}
	}
	return nil
}

// InversionEdge is one leg of a reported lock-order inversion cycle.
type InversionEdge struct {
	// From/To name the lock objects ("class#id").
	From string `json:"from"`
	To   string `json:"to"`
	// HoldSite is where From was acquired by the thread that then
	// acquired To at AcquireSite while still holding it.
	HoldSite    string `json:"hold_site"`
	AcquireSite string `json:"acquire_site"`
	// Thread is the first thread observed establishing this order;
	// MultiThread reports whether at least one more did too.
	Thread      string `json:"thread"`
	MultiThread bool   `json:"multi_thread"`
}

// InversionReport is one detected lock-order cycle: a potential
// deadlock, flagged the first time the inverse order appeared.
type InversionReport struct {
	// Seq orders reports by detection time.
	Seq uint64 `json:"seq"`
	// DetectedNs is the lockevent.Now timestamp of detection.
	DetectedNs int64 `json:"detected_ns"`
	// Cycle lists the edges of the order cycle; the last edge is the
	// one whose observation closed it.
	Cycle []InversionEdge `json:"cycle"`

	key string // canonical node-set key for dedup
}

// String renders the report on one line per edge.
func (r *InversionReport) String() string {
	s := fmt.Sprintf("lock-order inversion #%d (potential deadlock, %d locks):", r.Seq, len(r.Cycle))
	for _, e := range r.Cycle {
		s += fmt.Sprintf("\n  %s -> %s  [held at %s, acquired at %s, by %s",
			e.From, e.To, e.HoldSite, e.AcquireSite, e.Thread)
		if e.MultiThread {
			s += " and others"
		}
		s += "]"
	}
	return s
}

// report stores a deduplicated InversionReport for the cycle. Caller
// holds g.mu.
func (g *graph) report(d *Lockdep, cycle []*gedge) {
	nodes := make([]string, len(cycle))
	for i, e := range cycle {
		nodes[i] = fmt.Sprintf("%p", e.from)
	}
	sort.Strings(nodes)
	key := fmt.Sprint(nodes)
	n := g.reportLen.Load()
	for i := uint32(0); i < n; i++ {
		if r := g.reports[i].Load(); r != nil && r.key == key {
			return
		}
	}
	if n >= maxReports {
		g.reportDrops.Add(1)
		return
	}
	rep := &InversionReport{
		Seq:        uint64(n) + 1,
		DetectedNs: lockevent.Now(),
		key:        key,
	}
	for _, e := range cycle {
		rep.Cycle = append(rep.Cycle, InversionEdge{
			From:        e.from.label(),
			To:          e.to.label(),
			HoldSite:    d.SiteLabel(e.holdSite),
			AcquireSite: d.SiteLabel(e.acqSite),
			Thread:      e.threadNm,
			MultiThread: e.multi.Load(),
		})
	}
	g.reports[n].Store(rep)
	g.reportLen.Store(n + 1)
	d.ring.record(EvInversion, nil, nil, 0, uint32(rep.Seq))
}

// size reports the node and edge counts.
func (g *graph) size() (nodes, edges int) {
	for s := range g.shards {
		for i := range g.shards[s].slots {
			if g.shards[s].slots[i].Load() != nil {
				nodes++
			}
		}
	}
	return nodes, int(g.edgeCount.Load())
}

// nodes returns every published node.
func (g *graph) nodes() []*gnode {
	var out []*gnode
	for s := range g.shards {
		for i := range g.shards[s].slots {
			if n := g.shards[s].slots[i].Load(); n != nil {
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Inversions returns the reported lock-order inversion cycles in
// detection order.
func (d *Lockdep) Inversions() []*InversionReport {
	g := &d.graph
	n := g.reportLen.Load()
	out := make([]*InversionReport, 0, n)
	for i := uint32(0); i < n; i++ {
		if r := g.reports[i].Load(); r != nil {
			out = append(out, r)
		}
	}
	return out
}
