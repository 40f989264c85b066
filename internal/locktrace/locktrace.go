// Package locktrace records lock-operation event streams and analyzes
// them for hazards: unbalanced lock/unlock pairs, and lock-order
// inversions (cycles in the held-while-acquiring graph) that indicate
// potential deadlocks. It wraps any lockapi.Locker, so traces can be
// taken against thin locks or either baseline.
package locktrace

import (
	"fmt"
	"sync"
	"time"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// EventKind classifies one traced operation.
type EventKind int

const (
	// EvAcquire is a completed Lock.
	EvAcquire EventKind = iota
	// EvRelease is an Unlock (Failed marks IllegalMonitorState).
	EvRelease
	// EvWait is a Wait call (recorded at return; Failed marks error).
	EvWait
	// EvNotify is a Notify or NotifyAll.
	EvNotify
)

// String returns the event-kind label.
func (k EventKind) String() string {
	switch k {
	case EvAcquire:
		return "acquire"
	case EvRelease:
		return "release"
	case EvWait:
		return "wait"
	case EvNotify:
		return "notify"
	default:
		return "unknown"
	}
}

// Event is one recorded operation.
type Event struct {
	Seq    uint64
	Kind   EventKind
	Thread uint16
	Object uint64
	Class  string
	// Held lists the objects the thread already held when acquiring
	// (recorded for EvAcquire only); this drives the order analysis.
	Held []uint64
	// Failed marks operations that returned IllegalMonitorState.
	Failed bool
	// AtNanos is the monotonic time of the event in nanoseconds relative
	// to the tracer's creation. Monotonic-relative timestamps order
	// correctly across threads (wall clocks can step) and serialize as a
	// plain integer; the trace exporters consume this field directly.
	AtNanos int64
}

// At returns the event time as a Duration since the tracer's creation,
// derived from AtNanos (the previous representation of this field).
func (e Event) At() time.Duration { return time.Duration(e.AtNanos) }

// String renders one event.
func (e Event) String() string {
	status := ""
	if e.Failed {
		status = " FAILED"
	}
	return fmt.Sprintf("#%d t%d %s %s#%d%s", e.Seq, e.Thread, e.Kind, e.Class, e.Object, status)
}

// Tracer wraps a Locker and records every operation. Recording is
// bounded: beyond capacity the earliest events are dropped, and Dropped
// counts them. Analyze sees only the events passed to it, so a caller
// that needs the whole run must check Dropped itself.
type Tracer struct {
	inner lockapi.Locker

	mu       sync.Mutex
	events   []Event
	seq      uint64
	dropped  uint64
	capacity int
	start    time.Time
	// held tracks, per thread, the multiset of objects currently held.
	held map[uint16][]uint64
}

// DefaultCapacity bounds a tracer's event buffer unless overridden.
const DefaultCapacity = 1 << 16

// New returns a Tracer around inner with the given event capacity
// (0 means DefaultCapacity).
func New(inner lockapi.Locker, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		inner:    inner,
		capacity: capacity,
		start:    time.Now(),
		held:     make(map[uint16][]uint64),
	}
}

// Name implements lockapi.Locker.
func (tr *Tracer) Name() string { return tr.inner.Name() + "+trace" }

// Inner returns the wrapped implementation.
func (tr *Tracer) Inner() lockapi.Locker { return tr.inner }

// record appends an event under the tracer lock.
func (tr *Tracer) record(e Event) {
	tr.mu.Lock()
	tr.seq++
	e.Seq = tr.seq
	e.AtNanos = int64(time.Since(tr.start))
	if len(tr.events) >= tr.capacity {
		tr.events = tr.events[1:]
		tr.dropped++
	}
	tr.events = append(tr.events, e)
	tr.mu.Unlock()
}

// Lock implements lockapi.Locker.
func (tr *Tracer) Lock(t *threading.Thread, o *object.Object) {
	tr.mu.Lock()
	heldNow := append([]uint64(nil), tr.held[t.Index()]...)
	tr.mu.Unlock()

	tr.inner.Lock(t, o)

	tr.mu.Lock()
	tr.held[t.Index()] = append(tr.held[t.Index()], o.ID())
	tr.mu.Unlock()
	tr.record(Event{Kind: EvAcquire, Thread: t.Index(), Object: o.ID(),
		Class: o.Class(), Held: heldNow})
}

// Unlock implements lockapi.Locker.
func (tr *Tracer) Unlock(t *threading.Thread, o *object.Object) error {
	err := tr.inner.Unlock(t, o)
	if err == nil {
		tr.mu.Lock()
		hs := tr.held[t.Index()]
		for i := len(hs) - 1; i >= 0; i-- {
			if hs[i] == o.ID() {
				tr.held[t.Index()] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
		tr.mu.Unlock()
	}
	tr.record(Event{Kind: EvRelease, Thread: t.Index(), Object: o.ID(),
		Class: o.Class(), Failed: err != nil})
	return err
}

// Wait implements lockapi.Locker.
func (tr *Tracer) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	notified, err := tr.inner.Wait(t, o, d)
	tr.record(Event{Kind: EvWait, Thread: t.Index(), Object: o.ID(),
		Class: o.Class(), Failed: err != nil})
	return notified, err
}

// Notify implements lockapi.Locker.
func (tr *Tracer) Notify(t *threading.Thread, o *object.Object) error {
	err := tr.inner.Notify(t, o)
	tr.record(Event{Kind: EvNotify, Thread: t.Index(), Object: o.ID(),
		Class: o.Class(), Failed: err != nil})
	return err
}

// NotifyAll implements lockapi.Locker.
func (tr *Tracer) NotifyAll(t *threading.Thread, o *object.Object) error {
	err := tr.inner.NotifyAll(t, o)
	tr.record(Event{Kind: EvNotify, Thread: t.Index(), Object: o.ID(),
		Class: o.Class(), Failed: err != nil})
	return err
}

// Events returns a snapshot of the recorded events.
func (tr *Tracer) Events() []Event {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Event(nil), tr.events...)
}

// Dropped reports how many events the bounded buffer discarded.
func (tr *Tracer) Dropped() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}
