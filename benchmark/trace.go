package main

import (
	"math/bits"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// callKind is a Locker method the timing decorator keeps a histogram for.
type callKind int

const (
	callLock callKind = iota
	callUnlock
	callWait
	callNotify // Notify and NotifyAll
	numCallKinds
)

// layer is a program layer the workloads time at its boundary.
type layer int

const (
	layerJCL layer = iota
	layerVM
	numLayers
)

var layerNames = [numLayers]string{layerJCL: "jcl", layerVM: "vm"}

// traceSlots is the number of per-thread records; a thread uses the slot
// of its registry index. Every sample attaches at most three threads at
// once, and registry indices are dense from 1, so live threads never
// share a slot.
const traceSlots = 8

// ringSize bounds the raw spans kept per thread slot; older spans are
// overwritten.
const ringSize = 256

// span is one raw span: a thread body or one call into a layer.
type span struct {
	Name   string `json:"name"`
	Impl   string `json:"impl"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Thread uint16 `json:"thread"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// threadTrace is the record of one thread slot. Only the thread using
// the slot writes it, so its fields need no atomics; readers wait until
// the sample's threads have finished.
type threadTrace struct {
	hist  [numCallKinds][telemetry.NumBuckets]uint64
	calls [numCallKinds]uint64

	// lockNs and lockCalls are the time recorded inside, and the number
	// of, every Locker call so far; a span subtracts what accrued inside
	// its interval.
	lockNs     int64
	lockCalls  uint64
	layerNs    [numLayers]int64
	layerCalls [numLayers]uint64
	// layerLockCalls counts the Locker calls made inside each layer's
	// spans, whose tracing cost the spans' self time includes.
	layerLockCalls [numLayers]uint64
	threadNs       int64

	ring   [ringSize]span
	next   int
	seq    int64
	parent int64
	_      [64]byte
}

func (tt *threadTrace) record(k callKind, ns int64) {
	b := 0
	if ns > 0 {
		b = bits.Len64(uint64(ns))
		if b >= telemetry.NumBuckets {
			b = telemetry.NumBuckets - 1
		}
	}
	tt.hist[k][b]++
	tt.calls[k]++
	tt.lockNs += ns
	tt.lockCalls++
}

// tracer is the traced phase's view of one implementation: a Locker
// decorator that times every call into per-thread log2 histograms, plus
// the per-thread span records the workloads fill. It wraps one
// Locker at a time (see wrap) and accumulates across samples.
type tracer struct {
	impl    string
	inner   lockapi.Locker
	threads [traceSlots]threadTrace
}

func newTracer(impl string) *tracer { return &tracer{impl: impl} }

// wrap points the decorator at a fresh sample's Locker.
func (d *tracer) wrap(l lockapi.Locker) *tracer {
	d.inner = l
	return d
}

func (d *tracer) slot(t *threading.Thread) *threadTrace {
	return &d.threads[int(t.Index())&(traceSlots-1)]
}

func (d *tracer) Lock(t *threading.Thread, o *object.Object) {
	start := telemetry.Now()
	d.inner.Lock(t, o)
	d.slot(t).record(callLock, telemetry.Now()-start)
}

func (d *tracer) Unlock(t *threading.Thread, o *object.Object) error {
	start := telemetry.Now()
	err := d.inner.Unlock(t, o)
	d.slot(t).record(callUnlock, telemetry.Now()-start)
	return err
}

func (d *tracer) Wait(t *threading.Thread, o *object.Object, timeout time.Duration) (bool, error) {
	start := telemetry.Now()
	ok, err := d.inner.Wait(t, o, timeout)
	d.slot(t).record(callWait, telemetry.Now()-start)
	return ok, err
}

func (d *tracer) Notify(t *threading.Thread, o *object.Object) error {
	start := telemetry.Now()
	err := d.inner.Notify(t, o)
	d.slot(t).record(callNotify, telemetry.Now()-start)
	return err
}

func (d *tracer) NotifyAll(t *threading.Thread, o *object.Object) error {
	start := telemetry.Now()
	err := d.inner.NotifyAll(t, o)
	d.slot(t).record(callNotify, telemetry.Now()-start)
	return err
}

func (d *tracer) Name() string { return d.inner.Name() }

// spanStart is an open span: its start time and the thread's Locker
// records at that moment.
type spanStart struct {
	start, lockNs int64
	lockCalls     uint64
}

func (d *tracer) begin(t *threading.Thread) spanStart {
	tt := d.slot(t)
	return spanStart{start: telemetry.Now(), lockNs: tt.lockNs, lockCalls: tt.lockCalls}
}

// end closes a span over a call into l: the span's self time is
// its duration minus the Locker time recorded inside it.
func (d *tracer) end(t *threading.Thread, l layer, s spanStart) {
	now := telemetry.Now()
	tt := d.slot(t)
	tt.layerNs[l] += now - s.start - (tt.lockNs - s.lockNs)
	tt.layerCalls[l]++
	tt.layerLockCalls[l] += tt.lockCalls - s.lockCalls
	tt.seq++
	d.push(tt, span{Name: layerNames[l], ID: int64(t.Index())<<40 | tt.seq, Parent: tt.parent, Thread: t.Index(), Start: s.start, End: now})
}

// threadBody records a thread's whole body as the parent of its spans.
func (d *tracer) threadBody(t *threading.Thread, body func() error) error {
	tt := d.slot(t)
	tt.seq++
	tt.parent = int64(t.Index())<<40 | tt.seq
	start := telemetry.Now()
	err := body()
	now := telemetry.Now()
	tt.threadNs += now - start
	d.push(tt, span{Name: "thread", ID: tt.parent, Thread: t.Index(), Start: start, End: now})
	tt.parent = 0
	return err
}

func (d *tracer) push(tt *threadTrace, s span) {
	s.Impl = d.impl
	tt.ring[tt.next%ringSize] = s
	tt.next++
}

// rawSpans returns the spans still in the rings.
func (d *tracer) rawSpans() []span {
	var out []span
	for i := range d.threads {
		tt := &d.threads[i]
		n := min(tt.next, ringSize)
		for j := tt.next - n; j < tt.next; j++ {
			out = append(out, tt.ring[j%ringSize])
		}
	}
	return out
}

// traceTotals is a tracer's records merged across thread slots.
type traceTotals struct {
	hist           [numCallKinds]telemetry.HistSnapshot
	calls          [numCallKinds]uint64
	lockNs         int64
	lockCalls      uint64
	layerNs        [numLayers]int64
	layerCalls     [numLayers]uint64
	layerLockCalls [numLayers]uint64
	threadNs       int64
}

func (d *tracer) totals() traceTotals {
	var tot traceTotals
	for k := range tot.hist {
		tot.hist[k].Buckets = make([]uint64, telemetry.NumBuckets)
	}
	for i := range d.threads {
		tt := &d.threads[i]
		for k := callKind(0); k < numCallKinds; k++ {
			for b, n := range tt.hist[k] {
				tot.hist[k].Buckets[b] += n
				tot.hist[k].Count += n
			}
			tot.calls[k] += tt.calls[k]
		}
		tot.lockNs += tt.lockNs
		tot.lockCalls += tt.lockCalls
		tot.threadNs += tt.threadNs
		for l := range tt.layerNs {
			tot.layerNs[l] += tt.layerNs[l]
			tot.layerCalls[l] += tt.layerCalls[l]
			tot.layerLockCalls[l] += tt.layerLockCalls[l]
		}
	}
	return tot
}

// cost is what tracing adds, in ns: to one Locker call, and to one span.
// The ...In parts fall inside the interval the call or span records; the
// rest is spent around it, charged to the enclosing span or thread.
type cost struct {
	Call   float64 `json:"call_ns"`
	CallIn float64 `json:"call_inside_ns"`
	Span   float64 `json:"span_ns"`
	SpanIn float64 `json:"span_inside_ns"`
}

// tracerCost measures tracing's cost with the decorator around the NOP
// lock variant, whose calls cost nothing, so everything timed is the
// decorator's own clock reads and bookkeeping. Each figure is the median
// of five runs.
func tracerCost() cost {
	const n = 1 << 18
	t, err := threading.NewRegistry().Attach("cost")
	if err != nil {
		panic(err) // a fresh registry always has room
	}
	o := object.NewHeap().New("Object")
	var call, callIn, spanNs, spanIn [5]float64
	for r := range call {
		d := newTracer("cost").wrap(core.New(core.Options{Variant: core.VariantNOP}))
		start := telemetry.Now()
		for i := 0; i < n; i++ {
			d.Lock(t, o)
			_ = d.Unlock(t, o) // the NOP variant never fails
		}
		call[r] = float64(telemetry.Now()-start) / (2 * n)
		start = telemetry.Now()
		for i := 0; i < n; i++ {
			d.end(t, layerJCL, d.begin(t))
		}
		spanNs[r] = float64(telemetry.Now()-start) / n
		tot := d.totals()
		callIn[r] = float64(tot.lockNs) / (2 * n)
		spanIn[r] = float64(tot.layerNs[layerJCL]) / n
	}
	return cost{Call: median(call[:]), CallIn: median(callIn[:]), Span: median(spanNs[:]), SpanIn: median(spanIn[:])}
}

// layerTimes is a traced phase's thread time split into layers, net of
// tracing's own cost, in ns summed over its samples.
type layerTimes struct {
	thread, lock float64
	// workload is the time in the workloads' own code, outside every
	// layer and every Locker call.
	workload float64
	layer    [numLayers]float64
	// tracing is what the decorator and the spans cost in all.
	tracing float64
}

func (c cost) net(tot traceTotals) layerTimes {
	var spans uint64
	for _, n := range tot.layerCalls {
		spans += n
	}
	lt := layerTimes{
		lock:    float64(tot.lockNs) - float64(tot.lockCalls)*c.CallIn,
		tracing: float64(tot.lockCalls)*c.Call + float64(spans)*c.Span,
	}
	lt.thread = float64(tot.threadNs) - lt.tracing
	lt.workload = lt.thread - lt.lock
	for l := range lt.layer {
		lt.layer[l] = float64(tot.layerNs[l]) - float64(tot.layerLockCalls[l])*(c.Call-c.CallIn) - float64(tot.layerCalls[l])*c.SpanIn
		lt.workload -= lt.layer[l]
	}
	return lt
}
