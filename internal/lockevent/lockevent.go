// Package lockevent is the one path by which the lock implementations
// report what they do. Every implementation — thin locks, biased
// reservation, the fat monitors, both 1998 baselines and the
// interpreter — emits the same vocabulary of events (Kind), and the
// observers (internal/telemetry, internal/lockprof, internal/lockdep)
// consume them by installing themselves here from their Enable. The
// implementations import none of the observers.
//
// The disabled-path contract: an emit is one atomic load and a
// not-taken branch when no installed observer consumes its kind — when
// nothing is installed, and equally when, say, only telemetry is
// installed and the event is an uncontended acquire, which telemetry
// does not count. The load is of one word, the union of the installed
// observers' kinds; the observers themselves sit behind an
// atomic.Pointer that only the out-of-line dispatch reads. (Testing a
// kind bit behind the pointer would take a second load, and would push
// the helpers past Go's inlining budget.) The helpers (Emit, EmitValue
// and the Start/End pair that times a span) are //lockvet:noalloc and
// inline at every call site.
//
// Observers that attribute events to lock sites (lockprof, lockdep)
// share one site key, one capture function and one list of
// lock-machinery frames (site.go).
package lockevent

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Kind is one lock event. The kinds before NumCounted are counted
// kinds: internal/telemetry keeps one counter per counted kind at the
// kind's own index, so their order is the order of its counters.
type Kind uint8

const (
	// SlowEnter is an acquisition leaving the inlined fast path (a
	// nested lock, an inflated lock, contention). The baselines have no
	// fast path, so every acquisition of theirs is one.
	SlowEnter Kind = iota
	// CASFail is a compare-and-swap on the lock word that lost a race.
	CASFail
	// InflateContention, InflateOverflow and InflateWait are a thin
	// lock turning fat because of contention, nested-count overflow or
	// a wait (§2.3.4). They are consecutive, in that cause order.
	InflateContention
	InflateOverflow
	InflateWait
	// Spin is one back-off round waiting for a lock word or a fat
	// monitor another thread owns; the value is the WaitKind (WaitFat
	// for a monitor's entry spin).
	Spin
	// QueuedPark is a contender parking on the parking lot behind the
	// flat-lock-contention bit (compact monitors).
	QueuedPark
	// QueueWake is an owner waking the lot's entry parkers after its
	// final unlock.
	QueueWake
	// Enqueue is a thread joining a monitor's entry queue; the value is
	// the queue depth it found.
	Enqueue
	// Handoff is an exiting monitor owner handing ownership to the head
	// of the entry queue.
	Handoff
	// MonitorWait is a thread entering a monitor's wait set (under
	// compact monitors, filing itself on the lot as a waiter).
	MonitorWait
	// WaitTimeout is a wait woken by its timer rather than a notify.
	WaitTimeout
	// Notify is a Notify or NotifyAll on a monitor.
	Notify
	// VMEnter and VMExit are monitorenter and monitorexit opcodes
	// executed by the interpreter.
	VMEnter
	VMExit
	// CacheLookup, CacheMiss and CacheSweep are a JDK111 monitor-cache
	// consultation, a lookup that had to bind a monitor, and a
	// free-list refill sweep.
	CacheLookup
	CacheMiss
	CacheSweep
	// HotOp, ColdOp, HotPromote and ColdSweep are an IBM112 operation
	// served through a hot slot, one through the cold cache, an object
	// promoted to a hot slot, and a cold-cache cleanup scan.
	HotOp
	ColdOp
	HotPromote
	ColdSweep
	// BiasInstall is a bias reservation installed on an unlocked object.
	BiasInstall
	// BiasAcquire is an acquisition served by the reserving owner
	// without writing the shared lock word.
	BiasAcquire
	// BiasTransfer is a stale-epoch reservation handed to a new owner
	// instead of revoked.
	BiasTransfer
	// RevokeContention, RevokeOverflow and RevokeWait are a reservation
	// revoked by a contending thread, by its owner at the biased depth
	// cap, or by its owner's wait. Consecutive, in the inflation
	// causes' order.
	RevokeContention
	RevokeOverflow
	RevokeWait
	// BulkRebias is a class epoch bump; BulkRevoke a class declared
	// unbiasable.
	BulkRebias
	BulkRevoke

	// SlowExit closes the acquisition SlowEnter opened; the value is its
	// latency in nanoseconds.
	SlowExit
	// Unpark is a thread resuming after it parked on the contention
	// queue or a monitor's entry queue; the value is the nanoseconds
	// parked.
	Unpark
	// SlowUnlock is a release leaving the fast path (nested, fat or
	// failing).
	SlowUnlock
	// Acquire and Release are every successful lock and unlock.
	Acquire
	Release
	// Block is a thread about to block on an object; the value is the
	// WaitKind. Acquire ends the episode.
	Block
	// Unblock ends a blocking episode that does not end in an acquisition
	// (waiting out a bias revocation); the value is its nanoseconds.
	Unblock
	// WaitBegin and WaitEnd bracket an Object.wait call.
	WaitBegin
	WaitEnd

	// NumKinds is the number of kinds.
	NumKinds
)

// NumCounted is the number of counted kinds (SlowEnter..BulkRevoke).
const NumCounted = SlowExit

// WaitKind says why a thread blocks: the value of Block and Spin.
type WaitKind uint32

const (
	// WaitNone marks a thread that is not blocked.
	WaitNone WaitKind = iota
	// WaitSpin is a thread spinning for a thin lock held by another
	// thread (§2.3.4 of the paper).
	WaitSpin
	// WaitQueued is a thread parked on the parking lot behind the
	// flat-lock-contention bit (compact monitors).
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

// Mask is a set of kinds.
type Mask uint64

// Of returns the set holding kinds.
func Of(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Counted is the set of counted kinds.
const Counted Mask = 1<<NumCounted - 1

// Sites is not a kind: an observer whose mask holds it attributes
// events to the site of the lock operation, so while one is installed
// the interpreter publishes its bytecode frame around monitor
// acquisitions (see SiteFrames).
const Sites Mask = 1 << 63

// Observer consumes lock events. LockEvent runs on the acting thread's
// lock path, so it must not block, and should not allocate once the
// sites and objects it tracks are known.
type Observer interface {
	LockEvent(k Kind, t *threading.Thread, o *object.Object, v int64)
}

// Slot is one observer position. Each observer installs into its own,
// so enabling one never displaces another.
type Slot uint8

const (
	SlotTelemetry Slot = iota
	SlotProfiler
	SlotLockdep
	// SlotRecorder is free for a tool or test watching the raw stream.
	SlotRecorder

	numSlots
)

// set is one immutable generation of installed observers.
type set struct {
	obs   [numSlots]Observer
	masks [numSlots]Mask
}

var (
	// installMu serializes Install's read-copy-publish.
	installMu sync.Mutex
	// active is the installed set; nil when no observer is installed.
	active atomic.Pointer[set]
	// wanted is the union of active's masks: the emit helpers' guard.
	wanted atomic.Uint64
)

// Install puts obs in slot s, consuming the kinds in m; a nil obs
// empties the slot. An emit racing with Install dispatches to either
// the old or the new set of observers, never a mix, and each observer
// receives only kinds in its own mask.
func Install(s Slot, obs Observer, m Mask) {
	installMu.Lock()
	defer installMu.Unlock()
	next := new(set)
	if cur := active.Load(); cur != nil {
		*next = *cur
	}
	if obs == nil {
		m = 0
	}
	next.obs[s], next.masks[s] = obs, m
	var union Mask
	for _, sm := range next.masks {
		union |= sm
	}
	if union == 0 {
		next = nil
	}
	active.Store(next)
	wanted.Store(uint64(union))
}

// Wants reports whether an installed observer consumes k, for sites
// that time a span only when someone records it.
//
//lockvet:noalloc
func Wants(k Kind) bool { return wanted.Load()&(1<<k) != 0 }

// SiteFrames reports whether an installed observer attributes events
// to sites.
//
//lockvet:noalloc
func SiteFrames() bool { return Mask(wanted.Load())&Sites != 0 }

// Emit reports k by t on o (either may be nil) to the observers that
// consume it.
//
//lockvet:noalloc
func Emit(k Kind, t *threading.Thread, o *object.Object) {
	if wanted.Load()&(1<<k) != 0 {
		dispatch(k, t, o, 0)
	}
}

// EmitValue is Emit for kinds that carry a value.
//
//lockvet:noalloc
func EmitValue(k Kind, t *threading.Thread, o *object.Object, v int64) {
	if wanted.Load()&(1<<k) != 0 {
		dispatch(k, t, o, v)
	}
}

// Start opens a span that the k event will close: it returns the time
// to hand End when an installed observer consumes k, and 0 otherwise,
// so a span nobody records reads no clock.
//
//lockvet:noalloc
func Start(k Kind) int64 {
	if wanted.Load()&(1<<k) == 0 {
		return 0
	}
	return stamp()
}

// stamp is Now kept out of line, so that Start inlines.
//
//go:noinline
func stamp() int64 { return Now() }

// End closes a span Start opened, emitting k by t on o with its
// nanoseconds; a span opened while nobody consumed k emits nothing.
//
//lockvet:noalloc
func End(k Kind, t *threading.Thread, o *object.Object, start int64) {
	if start != 0 {
		end(k, t, o, start)
	}
}

// end is End's recording half, kept out of line so that End inlines.
//
//lockvet:noalloc
func end(k Kind, t *threading.Thread, o *object.Object, start int64) {
	dispatch(k, t, o, Now()-start)
}

// dispatch hands one event to every installed observer consuming it.
//
//lockvet:noalloc
func dispatch(k Kind, t *threading.Thread, o *object.Object, v int64) {
	s := active.Load()
	if s == nil {
		return
	}
	bit := Mask(1) << k
	for i := range s.obs {
		if s.masks[i]&bit != 0 {
			s.obs[i].LockEvent(k, t, o, v)
		}
	}
}

// base anchors Now; time.Since on a monotonic base compiles to a
// nanotime read and a subtraction, with no allocation.
var base = time.Now()

// Now returns monotonic nanoseconds since process start, plus one so
// that no time reads 0 (Start's "not timed"): the clock of every span
// the events measure.
//
//lockvet:noalloc
func Now() int64 { return int64(time.Since(base)) + 1 }
