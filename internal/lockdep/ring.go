package lockdep

import (
	"sort"
	"sync/atomic"

	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// The flight recorder: a fixed ring of recent lock events, written
// lock-free from the hook paths (one Add plus a handful of plain
// atomic stores per event) and snapshotted on demand by the watchdog
// and the debug endpoints. Writers never coordinate, so a reader can
// observe a slot mid-overwrite; the per-slot sequence number written
// first and checked by the reader makes such tears visible, and the
// recorder is explicitly best-effort — it exists to answer "what were
// the locks doing just before the hang", not to be a precise trace
// (internal/locktrace is the precise, mutex-serialized recorder).

// RingSize is the flight-recorder capacity (most recent events kept).
const RingSize = 1024

// EventKind classifies a flight-recorder event.
type EventKind uint32

const (
	// EvAcquire is a first (non-nested) acquisition.
	EvAcquire EventKind = iota + 1
	// EvRelease is a final release.
	EvRelease
	// EvBlocked is the start of a blocking episode (aux = WaitKind).
	EvBlocked
	// EvCondWait is an Object.wait entry.
	EvCondWait
	// EvCondWake is an Object.wait return.
	EvCondWake
	// EvInversion marks a lock-order inversion report (aux = report seq).
	EvInversion
	// EvStallDump marks a watchdog flight-recorder dump.
	EvStallDump
)

// String returns the event label.
func (k EventKind) String() string {
	switch k {
	case EvAcquire:
		return "acquire"
	case EvRelease:
		return "release"
	case EvBlocked:
		return "blocked"
	case EvCondWait:
		return "cond-wait"
	case EvCondWake:
		return "cond-wake"
	case EvInversion:
		return "inversion"
	case EvStallDump:
		return "stall-dump"
	default:
		return "unknown"
	}
}

// ringSlot is one recorder slot; every field is atomic so concurrent
// writers and readers stay race-free (tears show as seq mismatches).
type ringSlot struct {
	seq    atomic.Uint64
	tns    atomic.Int64
	kind   atomic.Uint32
	thread atomic.Pointer[threading.Thread]
	obj    atomic.Pointer[object.Object]
	site   atomic.Uint32
	aux    atomic.Uint32
}

// ring is the recorder.
type ring struct {
	seq   atomic.Uint64
	slots [RingSize]ringSlot
}

// record appends one event (lock-free, allocation-free).
func (r *ring) record(kind EventKind, thread *threading.Thread, o *object.Object, site, aux uint32) {
	seq := r.seq.Add(1)
	s := &r.slots[seq&(RingSize-1)]
	s.seq.Store(seq)
	s.tns.Store(telemetry.Now())
	s.kind.Store(uint32(kind))
	s.thread.Store(thread)
	s.obj.Store(o)
	s.site.Store(site)
	s.aux.Store(aux)
}

// Event is one exported flight-recorder event.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_ns"`
	Kind   string `json:"kind"`
	Thread string `json:"thread"`
	Object string `json:"object,omitempty"`
	Site   string `json:"site,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Events returns the flight recorder's contents, oldest first.
func (d *Lockdep) Events() []Event {
	var out []Event
	for i := range d.ring.slots {
		s := &d.ring.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		kind := EventKind(s.kind.Load())
		ev := Event{
			Seq:    seq,
			TimeNs: s.tns.Load(),
			Kind:   kind.String(),
			Thread: "-",
		}
		if t := s.thread.Load(); t != nil {
			ev.Thread = threadName(t)
		}
		if o := s.obj.Load(); o != nil {
			ev.Object = o.String()
		}
		if site := s.site.Load(); site != 0 {
			ev.Site = d.SiteLabel(site)
		}
		switch kind {
		case EvBlocked:
			ev.Detail = WaitKind(s.aux.Load()).String()
		case EvInversion:
			ev.Detail = "report"
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
