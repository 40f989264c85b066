// Package hotlocks implements the IBM JDK 1.1.2 baseline the paper calls
// "IBM112": a small fixed set of pre-allocated "hot locks" in front of a
// monitor cache.
//
// Per §3 of the paper: "The IBM112 implementation assumes that most
// applications will have a small number of heavily used locks. It
// therefore pre-allocates a small number (32) of hot locks. The system
// begins by using the default fat locks, slightly modified to record
// locking frequency. When a fat lock is detected to be hot, a pointer to
// the hot lock is placed in the header of the object ... One bit in the
// header word indicates whether the word is a hot lock pointer or regular
// header data."
//
// Once an object is hot, locking follows the header pointer, compares a
// thread identifier and increments a count — fast, which is why IBM112
// nearly matches thin locks on NestedSync and beats JDK111 under
// contention on few objects (Figure 4). Its Achilles heel, reproduced
// here, is that only 32 objects can be hot: workloads with larger working
// sets fall back to the global-locked cache, and MultiSync collapses past
// n = 32.
package hotlocks

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState mirrors monitor.ErrIllegalMonitorState.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// DefaultSlots is the number of pre-allocated hot locks in the paper.
const DefaultSlots = 32

// DefaultThreshold is the locking frequency at which a fat lock is
// "detected to be hot" and promoted.
const DefaultThreshold = 8

// defaultMaxCold bounds the cold cache before it sweeps quiescent
// entries.
const defaultMaxCold = 1024

// Header encoding: bit 31 flags a hot-lock pointer; bits 30..8 hold the
// hot slot index; the low 8 misc bits stay in place (the displaced
// header data the paper moves into the hot lock structure is, in this
// model, only the misc byte, which we can leave untouched).
const (
	hotBit    uint32 = 1 << 31
	slotShift        = 8
)

func hotWord(slot int, misc uint32) uint32 {
	return hotBit | uint32(slot)<<slotShift | misc&object.MiscMask
}

func slotOf(w uint32) int { return int((w &^ hotBit) >> slotShift) }

// Options configures a HotLocks instance.
type Options struct {
	// Slots is the number of hot locks; 0 means DefaultSlots (32).
	Slots int
	// Threshold is the promotion frequency; 0 means DefaultThreshold.
	Threshold uint32
	// MaxCold bounds the cold cache; 0 means a default of 1024.
	MaxCold int
}

// coldEntry is a cache-resident fat lock recording locking frequency.
type coldEntry struct {
	mon  *monitor.Monitor
	freq uint32
	pins int // threads between lookup and monitor op; guarded by mu
	// promoting marks that a thread has reserved a hot slot for this
	// entry and will install the header once it owns the monitor.
	promoting bool
}

// Stats is a snapshot of hot-lock behaviour.
type Stats struct {
	// HotOps counts operations served directly through a hot slot.
	HotOps uint64
	// ColdOps counts operations that went through the cache.
	ColdOps uint64
	// Promotions counts objects promoted to hot slots.
	Promotions uint64
	// Sweeps counts cold-cache cleanup scans.
	Sweeps uint64
}

// HotLocks is the IBM112 locker. It implements lockapi.Locker.
type HotLocks struct {
	mu        sync.Mutex
	cold      map[uint64]*coldEntry
	slots     []*monitor.Monitor
	nextSlot  int
	threshold uint32
	maxCold   int

	hotOps     atomic.Uint64
	coldOps    atomic.Uint64
	promotions atomic.Uint64
	sweeps     atomic.Uint64
}

// New returns a HotLocks instance with the given options.
func New(opts Options) *HotLocks {
	slots := opts.Slots
	if slots <= 0 {
		slots = DefaultSlots
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	maxCold := opts.MaxCold
	if maxCold <= 0 {
		maxCold = defaultMaxCold
	}
	return &HotLocks{
		cold:      make(map[uint64]*coldEntry),
		slots:     make([]*monitor.Monitor, slots),
		threshold: threshold,
		maxCold:   maxCold,
	}
}

// NewDefault returns the paper's configuration: 32 hot locks.
func NewDefault() *HotLocks { return New(Options{}) }

// Name implements lockapi.Locker.
func (h *HotLocks) Name() string { return "IBM112" }

// Stats returns a snapshot of the counters.
func (h *HotLocks) Stats() Stats {
	return Stats{
		HotOps:     h.hotOps.Load(),
		ColdOps:    h.coldOps.Load(),
		Promotions: h.promotions.Load(),
		Sweeps:     h.sweeps.Load(),
	}
}

// HotCount reports how many hot slots are occupied.
func (h *HotLocks) HotCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nextSlot
}

// ColdCount reports how many cold cache entries currently exist.
func (h *HotLocks) ColdCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.cold)
}

// Slots reports the configured number of hot-lock slots.
func (h *HotLocks) Slots() int { return len(h.slots) }

// hot returns the hot monitor for a hot header word.
func (h *HotLocks) hot(t *threading.Thread, w uint32) *monitor.Monitor {
	h.hotOps.Add(1)
	lockevent.Emit(lockevent.HotOp, t, nil)
	return h.slots[slotOf(w)]
}

// coldLookup finds or creates the pinned cold entry for o and bumps its
// frequency. It reserves a hot slot when the entry crosses the
// threshold; the reservation index is returned (or -1). A nil entry
// means o has no cold entry to use: either create is false, or o was
// promoted after the caller read its header, in which case the header
// is already hot (promotion publishes it under h.mu before dropping the
// entry) and the caller must follow it instead.
func (h *HotLocks) coldLookup(t *threading.Thread, o *object.Object, create bool) (*coldEntry, int) {
	h.coldOps.Add(1)
	lockevent.Emit(lockevent.ColdOp, t, o)
	h.mu.Lock()
	e := h.cold[o.ID()]
	if e == nil {
		if !create || o.Header()&hotBit != 0 {
			h.mu.Unlock()
			return nil, -1
		}
		if len(h.cold) >= h.maxCold {
			h.sweepLocked()
		}
		e = &coldEntry{mon: monitor.New()}
		h.cold[o.ID()] = e
	}
	e.pins++
	slot := -1
	if create {
		e.freq++
		if e.freq >= h.threshold && !e.promoting && h.nextSlot < len(h.slots) {
			// Reserve a slot; the header is installed by the caller
			// once it owns the monitor, so no other thread can be
			// mid-critical-section when the pointer appears.
			e.promoting = true
			slot = h.nextSlot
			h.nextSlot++
		}
	}
	h.mu.Unlock()
	return e, slot
}

// sweepLocked drops quiescent, unpinned cold entries. Caller holds h.mu.
func (h *HotLocks) sweepLocked() {
	h.sweeps.Add(1)
	lockevent.Emit(lockevent.ColdSweep, nil, nil)
	for id, e := range h.cold {
		if e.pins == 0 && !e.promoting && e.mon.Quiescent() {
			delete(h.cold, id)
		}
	}
}

func (h *HotLocks) unpin(e *coldEntry) {
	h.mu.Lock()
	e.pins--
	h.mu.Unlock()
}

// Lock implements lockapi.Locker. Like JDK111, every IBM112 acquisition
// routes through a monitor (hot slot or cold cache) — there is no
// header-only fast path — so every one is reported as a slow-path span.
func (h *HotLocks) Lock(t *threading.Thread, o *object.Object) {
	lockevent.Emit(lockevent.SlowEnter, t, o)
	start := lockevent.Start(lockevent.SlowExit)
	h.lockBody(t, o)
	lockevent.End(lockevent.SlowExit, t, o, start)
	lockevent.Emit(lockevent.Acquire, t, o)
}

func (h *HotLocks) lockBody(t *threading.Thread, o *object.Object) {
	w := o.Header()
	if w&hotBit == 0 {
		if e, slot := h.coldLookup(t, o, true); e != nil {
			h.lockCold(t, o, e, slot, w)
			return
		}
		w = o.Header() // promoted since our first read
	}
	lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitFat))
	h.hot(t, w).Enter(t, o)
}

// lockCold enters a pinned cold entry's monitor and, if coldLookup
// reserved a hot slot for it, promotes the object.
func (h *HotLocks) lockCold(t *threading.Thread, o *object.Object, e *coldEntry, slot int, w uint32) {
	lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitFat))
	e.mon.Enter(t, o)
	if slot >= 0 {
		// Promote: we own the monitor, so no thread is inside a
		// critical section on this object; threads blocked on the
		// monitor keep working because the slot aliases the same
		// monitor structure. The hot header is published before the
		// cold entry is dropped, both under h.mu, so a thread that read
		// the old header and then finds no entry sees the hot header
		// and follows it to this same monitor rather than creating a
		// second one.
		h.mu.Lock()
		h.slots[slot] = e.mon
		o.SetHeader(hotWord(slot, w))
		delete(h.cold, o.ID())
		h.mu.Unlock()
		h.promotions.Add(1)
		lockevent.Emit(lockevent.HotPromote, t, o)
	}
	h.unpin(e)
}

// Unlock implements lockapi.Locker.
func (h *HotLocks) Unlock(t *threading.Thread, o *object.Object) error {
	err := h.unlockBody(t, o)
	if err == nil {
		lockevent.Emit(lockevent.Release, t, o)
	}
	return err
}

func (h *HotLocks) unlockBody(t *threading.Thread, o *object.Object) error {
	lockevent.Emit(lockevent.SlowUnlock, t, o)
	w := o.Header()
	if w&hotBit != 0 {
		return h.hot(t, w).Exit(t)
	}
	e, _ := h.coldLookup(t, o, false)
	if e == nil {
		// The object may have been promoted between our header read
		// and the cache lookup.
		if w = o.Header(); w&hotBit != 0 {
			return h.hot(t, w).Exit(t)
		}
		return ErrIllegalMonitorState
	}
	err := e.mon.Exit(t)
	h.unpin(e)
	return err
}

// Wait implements lockapi.Locker.
func (h *HotLocks) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	lockevent.Emit(lockevent.WaitBegin, t, o)
	defer lockevent.Emit(lockevent.WaitEnd, t, o)
	w := o.Header()
	if w&hotBit != 0 {
		return h.hot(t, w).Wait(t, d)
	}
	e, _ := h.coldLookup(t, o, false)
	if e == nil {
		if w = o.Header(); w&hotBit != 0 {
			return h.hot(t, w).Wait(t, d)
		}
		return false, ErrIllegalMonitorState
	}
	notified, err := e.mon.Wait(t, d)
	h.unpin(e)
	return notified, err
}

// Notify implements lockapi.Locker.
func (h *HotLocks) Notify(t *threading.Thread, o *object.Object) error {
	w := o.Header()
	if w&hotBit != 0 {
		return h.hot(t, w).Notify(t)
	}
	e, _ := h.coldLookup(t, o, false)
	if e == nil {
		if w = o.Header(); w&hotBit != 0 {
			return h.hot(t, w).Notify(t)
		}
		return ErrIllegalMonitorState
	}
	err := e.mon.Notify(t)
	h.unpin(e)
	return err
}

// NotifyAll implements lockapi.Locker.
func (h *HotLocks) NotifyAll(t *threading.Thread, o *object.Object) error {
	w := o.Header()
	if w&hotBit != 0 {
		return h.hot(t, w).NotifyAll(t)
	}
	e, _ := h.coldLookup(t, o, false)
	if e == nil {
		if w = o.Header(); w&hotBit != 0 {
			return h.hot(t, w).NotifyAll(t)
		}
		return ErrIllegalMonitorState
	}
	err := e.mon.NotifyAll(t)
	h.unpin(e)
	return err
}
