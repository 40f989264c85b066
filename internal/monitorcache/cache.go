// Package monitorcache implements the Sun JDK 1.1.1 baseline the paper
// calls "JDK111": monitors are kept outside of objects and looked up in a
// global monitor cache on every operation.
//
// The paper's critique of this design (§1, §3.3) is structural, and this
// implementation reproduces that structure honestly:
//
//   - the cache itself must be locked during lookups "to prevent race
//     conditions with concurrent modifiers", so every monitorenter and
//     monitorexit pays a global lock acquisition plus a hash lookup;
//   - monitor structures come from a bounded pool; when the working set
//     of locked objects exceeds the pool, the cache "thrashes its free
//     list": each miss must sweep the pool for recyclable monitors,
//     which is what bends the MultiSync curve in Figure 4.
//
// Entries are pinned while a thread is between the lookup and the monitor
// operation so a sweep never recycles a monitor another thread is about
// to enter.
package monitorcache

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState mirrors monitor.ErrIllegalMonitorState for
// operations on objects the thread does not hold.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// DefaultCapacity is the default size of the monitor pool. The historical
// JDK preallocated a cache of comparable magnitude; the exact value only
// moves the MultiSync knee.
const DefaultCapacity = 128

// Options configures a Cache.
type Options struct {
	// Capacity is the monitor pool size; 0 means DefaultCapacity.
	Capacity int
}

// entry associates an object with a pooled monitor.
type entry struct {
	objID uint64
	mon   *monitor.Monitor
	// pins counts threads between lookup and monitor operation (plus
	// waiters); a pinned entry is never recycled. Guarded by Cache.mu.
	pins int
}

// Stats is a snapshot of cache behaviour counters.
type Stats struct {
	// Lookups counts cache consultations (every lock, unlock, wait and
	// notify performs one).
	Lookups uint64
	// Misses counts lookups that had to bind a fresh monitor.
	Misses uint64
	// Sweeps counts free-list refills that scanned the whole pool.
	Sweeps uint64
	// Recycled counts monitors reclaimed by sweeps.
	Recycled uint64
	// Expansions counts pool growth events forced by a sweep that found
	// nothing recyclable.
	Expansions uint64
}

// Cache is the JDK111 locker: a global-locked object→monitor hash table
// with a bounded monitor pool. It implements lockapi.Locker.
type Cache struct {
	mu       sync.Mutex
	table    map[uint64]*entry
	free     []*entry
	capacity int

	lookups    atomic.Uint64
	misses     atomic.Uint64
	sweeps     atomic.Uint64
	recycled   atomic.Uint64
	expansions atomic.Uint64
}

// New returns a cache with the given options.
func New(opts Options) *Cache {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{
		table:    make(map[uint64]*entry, capacity),
		capacity: capacity,
	}
	for i := 0; i < capacity; i++ {
		c.free = append(c.free, &entry{mon: monitor.New()})
	}
	return c
}

// NewDefault returns a cache with the default pool size.
func NewDefault() *Cache { return New(Options{}) }

// Name implements lockapi.Locker.
func (c *Cache) Name() string { return "JDK111" }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:    c.lookups.Load(),
		Misses:     c.misses.Load(),
		Sweeps:     c.sweeps.Load(),
		Recycled:   c.recycled.Load(),
		Expansions: c.expansions.Load(),
	}
}

// PoolSize reports the current monitor pool size (capacity plus any
// forced expansions).
func (c *Cache) PoolSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// lookup finds or creates the pinned entry for o. The caller must
// eventually call unpin.
func (c *Cache) lookup(t *threading.Thread, o *object.Object) *entry {
	c.lookups.Add(1)
	lockevent.Emit(lockevent.CacheLookup, t, o)
	c.mu.Lock()
	e, ok := c.table[o.ID()]
	if !ok {
		c.misses.Add(1)
		lockevent.Emit(lockevent.CacheMiss, t, o)
		e = c.takeFreeLocked()
		e.objID = o.ID()
		c.table[o.ID()] = e
	}
	e.pins++
	c.mu.Unlock()
	return e
}

// lookupExisting finds and pins the entry for o, or returns nil if the
// object has no monitor bound (it cannot be locked).
func (c *Cache) lookupExisting(t *threading.Thread, o *object.Object) *entry {
	c.lookups.Add(1)
	lockevent.Emit(lockevent.CacheLookup, t, o)
	c.mu.Lock()
	e := c.table[o.ID()]
	if e != nil {
		e.pins++
	}
	c.mu.Unlock()
	return e
}

// takeFreeLocked pops a free entry, sweeping the table for recyclable
// monitors when the free list is empty. Caller holds c.mu.
func (c *Cache) takeFreeLocked() *entry {
	if len(c.free) == 0 {
		c.sweepLocked()
	}
	if len(c.free) == 0 {
		// Nothing recyclable: the pool must grow. The historical JDK
		// allocated more monitor structures here; the paper notes the
		// space overhead "may be considerable".
		c.expansions.Add(1)
		c.capacity++
		return &entry{mon: monitor.New()}
	}
	e := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return e
}

// sweepLocked scans the entire table, unbinding every entry whose
// monitor is quiescent and unpinned — the free-list thrash the paper
// blames for JDK111's MultiSync slowdown. Caller holds c.mu.
func (c *Cache) sweepLocked() {
	c.sweeps.Add(1)
	lockevent.Emit(lockevent.CacheSweep, nil, nil)
	for id, e := range c.table {
		if e.pins == 0 && e.mon.Quiescent() {
			delete(c.table, id)
			e.objID = 0
			c.free = append(c.free, e)
			c.recycled.Add(1)
		}
	}
}

// unpin releases the caller's pin on e.
func (c *Cache) unpin(e *entry) {
	c.mu.Lock()
	e.pins--
	c.mu.Unlock()
}

// Lock implements lockapi.Locker. Every JDK111 acquisition is a slow
// path — there is no fast path to protect — so every one is reported
// as a slow-path span.
func (c *Cache) Lock(t *threading.Thread, o *object.Object) {
	lockevent.Emit(lockevent.SlowEnter, t, o)
	start := lockevent.Start(lockevent.SlowExit)
	e := c.lookup(t, o)
	lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitFat))
	e.mon.Enter(t, o)
	c.unpin(e)
	lockevent.End(lockevent.SlowExit, t, o, start)
	lockevent.Emit(lockevent.Acquire, t, o)
}

// Unlock implements lockapi.Locker. Like monitorenter, monitorexit must
// consult the cache.
func (c *Cache) Unlock(t *threading.Thread, o *object.Object) error {
	err := c.unlockBody(t, o)
	if err == nil {
		lockevent.Emit(lockevent.Release, t, o)
	}
	return err
}

func (c *Cache) unlockBody(t *threading.Thread, o *object.Object) error {
	lockevent.Emit(lockevent.SlowUnlock, t, o)
	e := c.lookupExisting(t, o)
	if e == nil {
		return ErrIllegalMonitorState
	}
	err := e.mon.Exit(t)
	c.unpin(e)
	return err
}

// Wait implements lockapi.Locker. The pin spans the whole wait so the
// sweep never recycles a monitor with a waiter in flight.
func (c *Cache) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	lockevent.Emit(lockevent.WaitBegin, t, o)
	defer lockevent.Emit(lockevent.WaitEnd, t, o)
	e := c.lookupExisting(t, o)
	if e == nil {
		return false, ErrIllegalMonitorState
	}
	notified, err := e.mon.Wait(t, d)
	c.unpin(e)
	return notified, err
}

// Notify implements lockapi.Locker.
func (c *Cache) Notify(t *threading.Thread, o *object.Object) error {
	e := c.lookupExisting(t, o)
	if e == nil {
		return ErrIllegalMonitorState
	}
	err := e.mon.Notify(t)
	c.unpin(e)
	return err
}

// NotifyAll implements lockapi.Locker.
func (c *Cache) NotifyAll(t *threading.Thread, o *object.Object) error {
	e := c.lookupExisting(t, o)
	if e == nil {
		return ErrIllegalMonitorState
	}
	err := e.mon.NotifyAll(t)
	c.unpin(e)
	return err
}

// BoundMonitors reports how many objects currently have monitors bound,
// for tests and diagnostics.
func (c *Cache) BoundMonitors() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.table)
}
