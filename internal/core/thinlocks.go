package core

import (
	"sync/atomic"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread unlocks, waits on or
// notifies an object whose monitor it does not own.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// Variant selects one of the implementation alternatives studied in
// §3.5 / Figure 6 of the paper.
type Variant int

const (
	// VariantStandard is the paper's final implementation ("ThinLock"
	// in Figure 6): the machine type is tested dynamically on every
	// lock and unlock operation, selecting the uniprocessor,
	// multiprocessor or kernel-CAS path.
	VariantStandard Variant = iota
	// VariantInline is the fastest variant: the uniprocessor path with
	// no dynamic machine test ("Inline" in Figure 6).
	VariantInline
	// VariantFnCall routes lock and unlock through single out-of-line
	// routines ("FnCall" in Figure 6).
	VariantFnCall
	// VariantMPSync is the multiprocessor path: isync after lock and
	// sync around unlock ("MP Sync" in Figure 6).
	VariantMPSync
	// VariantKernelCAS models old POWER machines whose compare-and-swap
	// is a kernel service (§3.5.1).
	VariantKernelCAS
	// VariantUnlockCAS performs the unlock with a compare-and-swap
	// instead of a plain store ("UnlkC&S" in Figure 6), demonstrating
	// the value of the store-only unlock discipline.
	VariantUnlockCAS
	// VariantNOP removes all locking ("NOP" in Figure 6, the "speed of
	// light"): lock and unlock do nothing. Only meaningful for
	// single-threaded measurement.
	VariantNOP
)

// String returns the Figure 6 label for the variant.
func (v Variant) String() string {
	switch v {
	case VariantStandard:
		return "ThinLock"
	case VariantInline:
		return "Inline"
	case VariantFnCall:
		return "FnCall"
	case VariantMPSync:
		return "MP Sync"
	case VariantKernelCAS:
		return "KernelC&S"
	case VariantUnlockCAS:
		return "UnlkC&S"
	case VariantNOP:
		return "NOP"
	default:
		return "unknown-variant"
	}
}

// Options configures a ThinLocks instance.
type Options struct {
	// Variant selects the implementation alternative. The default is
	// VariantStandard.
	Variant Variant
	// CPU is the simulated machine the Standard variant's dynamic test
	// selects for. Ignored by the other variants, which hard-wire a
	// machine. The default is PowerPCUP.
	CPU arch.CPU
	// Compact turns on compact monitors (not in the paper, whose
	// contended objects stay inflated for life), after Dice & Kogan's
	// Compact Java Monitors: the header only ever holds thin words, and
	// the queueing state lives on the threading package's parking lot.
	// A contender spins, then parks there keyed by the object; Wait
	// files the waiter there and Notify relabels it. Nothing inflates,
	// so the instance keeps no monitor table (compact.go).
	Compact bool
	// CountBits narrows the nested-count field for the §3.2 ablation
	// ("our use of 8 bits for the lock count is highly conservative;
	// 2 or 3 bits is probably sufficient"). Valid values are 1..8;
	// 0 means the paper's 8. A lock nests up to 2^CountBits times
	// before the next acquisition overflows and inflates (under
	// Compact, moves its deeper levels to a side count). The field
	// always occupies the same 8 bit positions; narrowing only lowers
	// the overflow threshold.
	CountBits int
	// TestMutations plants deliberate protocol bugs so the differential
	// checker can prove it detects them. Test-only; see mutation.go.
	TestMutations Mutations
}

// Stats is a snapshot of a ThinLocks instance's internal counters.
type Stats struct {
	// InflationsContention counts inflations caused by a second thread
	// contending for a thin lock.
	InflationsContention uint64
	// InflationsOverflow counts inflations caused by the 257th nested
	// lock.
	InflationsOverflow uint64
	// InflationsWait counts inflations caused by a wait operation on a
	// thin-locked object.
	InflationsWait uint64
	// SpinAcquisitions counts slow-path acquisitions that had to spin
	// for a thin lock held by another thread.
	SpinAcquisitions uint64
	// SpinRounds counts individual back-off pauses across all spins
	// for a thin lock word. A contender's spin rounds on a fat monitor
	// are not counted here; they reach telemetry's spin_rounds as Spin
	// events with WaitFat.
	SpinRounds uint64
	// Deflations is always 0: no configuration turns a fat lock back
	// into a thin one. It stays because benchmark reports read it.
	Deflations uint64
	// QueuedParks counts contenders that parked on the parking lot
	// (always 0 unless compact monitors are on).
	QueuedParks uint64
	// FLCWakeups counts owner-side wakeups of the lot's entry parkers.
	FLCWakeups uint64
	// FatLocks is the number of monitors ever allocated (always 0 under
	// compact monitors).
	FatLocks int
	// TableSpan is the size of the monitor index space in use, the
	// table's memory footprint. It equals FatLocks: an index is never
	// reused.
	TableSpan int
}

// Inflations returns the total number of inflations for any cause.
func (s Stats) Inflations() uint64 {
	return s.InflationsContention + s.InflationsOverflow + s.InflationsWait
}

// ThinLocks implements lockapi.Locker with the paper's algorithm. It is
// a veneer over the heavy-weight monitor subsystem: uncontended and
// nested locking never touch a monitor.
type ThinLocks struct {
	table   *monitor.Table // nil under compact monitors
	variant Variant
	cpu     arch.CPU
	// compact is Options.Compact. Its contenders park on the lot, so
	// a final unlock must check the flc bit.
	compact bool
	mut     Mutations
	// nestedLimit is the XOR-check bound: maxCount << CountShift.
	nestedLimit uint32
	// maxCount is the largest encodable count, (1 << CountBits) - 1.
	maxCount uint32

	inflContention atomic.Uint64
	inflOverflow   atomic.Uint64
	inflWait       atomic.Uint64
	spinAcq        atomic.Uint64
	spinRounds     atomic.Uint64
	queuedParks    atomic.Uint64
	flcWakeups     atomic.Uint64

	// deep holds compact monitors' side counts (compact.go).
	deep monitor.SideCounts[*object.Object]
}

// New returns a ThinLocks instance with the given options.
func New(opts Options) *ThinLocks {
	bits := opts.CountBits
	if bits <= 0 || bits > 8 {
		bits = 8
	}
	maxCount := uint32(1)<<bits - 1
	tl := &ThinLocks{
		variant:     opts.Variant,
		cpu:         opts.CPU,
		compact:     opts.Compact,
		mut:         opts.TestMutations,
		nestedLimit: maxCount << CountShift,
		maxCount:    maxCount,
	}
	if !opts.Compact {
		tl.table = monitor.NewTable()
	}
	return tl
}

// NewDefault returns the standard configuration: dynamic machine test on
// a PowerPC uniprocessor, inflation for life.
func NewDefault() *ThinLocks { return New(Options{}) }

// Name implements lockapi.Locker.
func (l *ThinLocks) Name() string {
	if l.variant == VariantStandard {
		return "ThinLock"
	}
	return "ThinLock/" + l.variant.String()
}

// Variant returns the configured implementation variant.
func (l *ThinLocks) Variant() Variant { return l.variant }

// Stats returns a snapshot of the instance's counters.
func (l *ThinLocks) Stats() Stats {
	s := Stats{
		InflationsContention: l.inflContention.Load(),
		InflationsOverflow:   l.inflOverflow.Load(),
		InflationsWait:       l.inflWait.Load(),
		SpinAcquisitions:     l.spinAcq.Load(),
		SpinRounds:           l.spinRounds.Load(),
		QueuedParks:          l.queuedParks.Load(),
		FLCWakeups:           l.flcWakeups.Load(),
	}
	if l.table != nil {
		s.FatLocks = l.table.Len()
		s.TableSpan = s.FatLocks
	}
	return s
}

// Lock acquires o's monitor for t (§2.3.1, §2.3.3, §2.3.4). The outer
// switch picks the Figure 6 variant; the Standard variant's inner switch
// is §3.5.1's dynamic machine-type test, one predictable branch per
// operation. The thin fast path (lockThin) is inlined into every arm
// with a user-level CAS, so an uncontended lock makes no Go call past
// the interface. FnCall's out-of-line routine is that variant, and on
// POWER the CAS itself is a call into the simulated kernel. The Acquire
// event follows the acquisition so an observer sees every lock exactly
// when it is held; unobserved it costs one atomic load and a not-taken
// branch.
func (l *ThinLocks) Lock(t *threading.Thread, o *object.Object) {
	switch l.variant {
	case VariantStandard:
		switch l.cpu {
		case arch.PowerPCMP:
			if lockThin(t, o) {
				arch.ISync()
			} else {
				l.lockSlow(t, o, arch.PowerPCMP, true)
			}
		case arch.POWER:
			l.lockKernel(t, o)
		default:
			if !lockThin(t, o) {
				l.lockSlow(t, o, arch.PowerPCUP, false)
			}
		}
	case VariantInline, VariantUnlockCAS:
		if !lockThin(t, o) {
			l.lockSlow(t, o, arch.PowerPCUP, false)
		}
	case VariantFnCall:
		lockFn(l, t, o)
	case VariantMPSync:
		if lockThin(t, o) {
			arch.ISync()
		} else {
			l.lockSlow(t, o, arch.PowerPCMP, true)
		}
	case VariantKernelCAS:
		l.lockKernel(t, o)
	case VariantNOP:
		return // locking removed: the speed of light
	}
	if lockevent.Wants(lockevent.Acquire) {
		lockevent.Emit(lockevent.Acquire, t, o)
	}
}

// lockThin is the paper's fast path, its 17-instruction common case:
// load, compare with the unlocked image, compare-and-swap. It reports
// false for every other case (a nested lock, an inflated header,
// contention, a lost CAS), which lockSlow handles. The compare comes
// before the CAS, as in the paper's PowerPC sequence (lwarx; cmpw; bne;
// stwcx.), so a failed compare stores nothing: a nested lock or an
// inflated header goes to the slow path without a locked write to the
// header's cache line. It must stay small enough to inline; `make
// fastpath` checks that it is.
func lockThin(t *threading.Thread, o *object.Object) bool {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	return w&^MiscMask == 0 && atomic.CompareAndSwapUint32(hp, w, w|t.Shifted())
}

// lockKernel is lockThin on a machine whose compare-and-swap is a
// kernel service (§3.5.1), slow path included.
func (l *ThinLocks) lockKernel(t *threading.Thread, o *object.Object) {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	if w&^MiscMask != 0 || !arch.CAS(arch.POWER, hp, w, w|t.Shifted()) {
		l.lockSlow(t, o, arch.POWER, false)
	}
}

// lockFn is the out-of-line lock routine of the FnCall variant.
//
//go:noinline
func lockFn(l *ThinLocks, t *threading.Thread, o *object.Object) {
	if !lockThin(t, o) {
		l.lockSlow(t, o, arch.PowerPCUP, false)
	}
}

// lockSlow handles every case except an initial lock of an unlocked
// object: nested locking, locking an inflated object, count overflow,
// and contention (§2.3.3–§2.3.4). The slow-path span events live here,
// off the fast path: unobserved, the cost is two atomic loads and a
// compare.
func (l *ThinLocks) lockSlow(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	lockevent.Emit(lockevent.SlowEnter, t, o)
	start := lockevent.Start(lockevent.SlowExit)
	if l.compact {
		l.lockCompact(t, o, cpu, fence)
	} else {
		l.lockSlowBody(t, o, cpu, fence)
	}
	lockevent.End(lockevent.SlowExit, t, o, start)
}

// lockSlowBody is the slow-path state machine proper.
func (l *ThinLocks) lockSlowBody(t *threading.Thread, o *object.Object, cpu arch.CPU, fence bool) {
	hp := o.HeaderAddr()
	shifted := t.Shifted()
	var b arch.Backoff
	spun := false
	for {
		w := atomic.LoadUint32(hp)
		x := w ^ shifted
		switch {
		case x < l.nestedLimit:
			// Thin, owned by this thread, count < 255: nested lock.
			// The owner may update the word with a plain store.
			atomic.StoreUint32(hp, w+CountUnit)
			return

		case IsInflated(w):
			lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitFat))
			l.table.Get(FatIndex(w)).Enter(t, o)
			if fence {
				arch.ISync()
			}
			return

		case x&TIDMask == 0:
			// Thin, owned by this thread, count saturated: the next
			// lock would overflow the count field, so inflate,
			// carrying the full nesting depth into the fat lock.
			// With the paper's 8-bit field this is the 257th lock.
			l.inflOverflow.Add(1)
			lockevent.Emit(lockevent.InflateOverflow, t, o)
			locks := l.maxCount + 2
			if l.mut.OverflowOffByOne {
				locks-- // seeded bug: one recursion level lost
			}
			l.inflate(t, o, locks)
			return

		case w&TIDMask == 0:
			// Unlocked. If we spun to get here the object has shown
			// contention, so once we win the thin lock we inflate it,
			// banking on the locality-of-contention principle: "if
			// there is contention for an object once, there is likely
			// to be contention for it again" (§2.3.4).
			if arch.CAS(cpu, hp, w, w&MiscMask|shifted) {
				if spun {
					l.spinAcq.Add(1)
					l.inflContention.Add(1)
					lockevent.Emit(lockevent.InflateContention, t, o)
					l.inflate(t, o, 1)
				}
				if fence {
					arch.ISync()
				}
				return
			}
			lockevent.Emit(lockevent.CASFail, t, o)

		default:
			// Thin-locked by another thread. Our discipline forbids
			// writing the lock word, so spin with exponential back-off
			// until the owner releases (§2.3.4).
			spun = true
			l.spinRounds.Add(1)
			lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitSpin))
			b.Pause()
		}
	}
}

// inflate converts the thin lock the calling thread owns into a fat lock
// holding `locks` nested locks. The header store may be plain: the
// inflating thread owns the thin lock, and the discipline guarantees
// exclusive write access to the lock word.
func (l *ThinLocks) inflate(t *threading.Thread, o *object.Object, locks uint32) *monitor.Monitor {
	m, idx := l.table.Allocate()
	m.SeedOwner(t, locks)
	o.SetHeader(InflatedWord(idx, o.Header()))
	return m
}

// Unlock releases one level of o's monitor (§2.3.2). It has Lock's
// shape: the variant switch, the Standard variant's machine test, and
// an inlined thin fast path (unlockThin, or unlockThinCAS for UnlkC&S)
// in every arm but FnCall's.
func (l *ThinLocks) Unlock(t *threading.Thread, o *object.Object) error {
	var err error
	switch l.variant {
	case VariantStandard:
		fence := l.cpu == arch.PowerPCMP
		if !l.unlockThin(t, o, fence) {
			err = l.unlockSlow(t, o, fence, false)
		}
	case VariantInline, VariantKernelCAS:
		if !l.unlockThin(t, o, false) {
			err = l.unlockSlow(t, o, false, false)
		}
	case VariantFnCall:
		err = unlockFn(l, t, o)
	case VariantMPSync:
		if !l.unlockThin(t, o, true) {
			err = l.unlockSlow(t, o, true, false)
		}
	case VariantUnlockCAS:
		if !l.unlockThinCAS(t, o) {
			err = l.unlockSlow(t, o, false, true)
		}
	case VariantNOP:
		return nil
	}
	if err == nil && lockevent.Wants(lockevent.Release) {
		lockevent.Emit(lockevent.Release, t, o)
	}
	return err
}

// unlockThin is the paper's unlock: a load, a compare, and a store. No
// read-modify-write is needed because lock ownership is a stable
// property — if this thread owns the lock the loaded value cannot be
// stale, and if it does not, any stale value still shows that it does
// not (§2.3.2). On a multiprocessor the sync barrier before the store
// makes the critical section's writes visible first (§3.5.1). It
// reports false, having stored nothing, unless o is thin and held once
// by t with no lot parkers to wake (l.compact off); unlockSlow does the
// rest. It must stay small enough to inline; `make fastpath` checks
// that it is.
//
// The store is atomic.StoreUint32, an XCHG on amd64, not the paper's
// plain store. With a plain release store the thin pair would cost one
// locked instruction and the biased reservation's reacquire two,
// because its depth stores must stay sequentially consistent, so the
// reservation would lose the race it exists to win
// (TestBiasedReacquireBeatsThinCAS). ROADMAP item 5's verdict is that
// the reservation gives way: the plain store lands once it is deleted.
func (l *ThinLocks) unlockThin(t *threading.Thread, o *object.Object, fence bool) bool {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp) ^ t.Shifted()
	if w >= CountUnit || l.compact {
		return false
	}
	if fence {
		arch.Sync()
	}
	atomic.StoreUint32(hp, w)
	return true
}

// unlockThinCAS is unlockThin for the UnlkC&S variant: the release uses
// a compare-and-swap, paying the atomic-operation cost the discipline
// makes unnecessary.
func (l *ThinLocks) unlockThinCAS(t *threading.Thread, o *object.Object) bool {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	if w^t.Shifted() >= CountUnit || l.compact {
		return false
	}
	if !atomic.CompareAndSwapUint32(hp, w, w^t.Shifted()) {
		// Unreachable: we own the lock, so no other thread may
		// write the word.
		panic("core: unlock CAS failed while owning the lock")
	}
	return true
}

// unlockFn is the out-of-line unlock routine of the FnCall variant.
//
//go:noinline
func unlockFn(l *ThinLocks, t *threading.Thread, o *object.Object) error {
	if l.unlockThin(t, o, false) {
		return nil
	}
	return l.unlockSlow(t, o, false, false)
}

// unlockSlow handles everything unlockThin leaves: the final release
// when contenders may park, nested thin unlocks, fat unlocks, and
// errors.
func (l *ThinLocks) unlockSlow(t *threading.Thread, o *object.Object, fence, useCAS bool) error {
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	x := w ^ t.Shifted()
	if x < CountUnit {
		// A final release that unlockThin left because contenders may
		// park on the lot: compact monitors' fast path, not a
		// slow-path entry. Its store stays sequentially consistent,
		// because the flags load after it is one side of the flc
		// Dekker handshake (compact.go).
		if fence {
			arch.Sync()
		}
		if useCAS {
			if !atomic.CompareAndSwapUint32(hp, w, x) {
				panic("core: unlock CAS failed while owning the lock")
			}
		} else {
			atomic.StoreUint32(hp, x)
		}
		if l.compact {
			l.wakeAfterUnlock(o)
		}
		return nil
	}
	lockevent.Emit(lockevent.SlowUnlock, t, o)
	if x>>IndexShift == 0 {
		// Thin, owned by this thread, nested.
		if l.compact && ThinCount(w) == l.maxCount && l.deep.Shallower(o) {
			return nil // released a level of the side count
		}
		nw := w - CountUnit
		if useCAS {
			if !atomic.CompareAndSwapUint32(hp, w, nw) {
				panic("core: unlock CAS failed while owning the lock")
			}
		} else {
			atomic.StoreUint32(hp, nw)
		}
		return nil
	}
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).Exit(t)
	}
	// Thin but owned by another thread (or unlocked).
	return ErrIllegalMonitorState
}

// Wait implements lockapi.Locker. Waiting requires queues, so a
// thin-locked object is first inflated at its current nesting depth;
// compact monitors queue the waiter on the parking lot instead.
func (l *ThinLocks) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	lockevent.Emit(lockevent.WaitBegin, t, o)
	defer lockevent.Emit(lockevent.WaitEnd, t, o)
	if l.compact {
		return l.waitCompact(t, o, d)
	}
	w := o.Header()
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).Wait(t, d)
	}
	if w&TIDMask == t.Shifted() {
		l.inflWait.Add(1)
		lockevent.Emit(lockevent.InflateWait, t, o)
		m := l.inflate(t, o, ThinCount(w)+1)
		return m.Wait(t, d)
	}
	return false, ErrIllegalMonitorState
}

// Notify implements lockapi.Locker. Unless monitors are compact, a
// thin-locked object can have no waiters (waiting inflates), so notify
// on an owned thin lock is a no-op.
func (l *ThinLocks) Notify(t *threading.Thread, o *object.Object) error {
	if l.compact {
		return l.notifyCompact(t, o, 1)
	}
	w := o.Header()
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).Notify(t)
	}
	if w&TIDMask == t.Shifted() {
		return nil
	}
	return ErrIllegalMonitorState
}

// NotifyAll implements lockapi.Locker.
func (l *ThinLocks) NotifyAll(t *threading.Thread, o *object.Object) error {
	if l.compact {
		return l.notifyCompact(t, o, -1)
	}
	w := o.Header()
	if IsInflated(w) {
		return l.table.Get(FatIndex(w)).NotifyAll(t)
	}
	if w&TIDMask == t.Shifted() {
		return nil
	}
	return ErrIllegalMonitorState
}

// Inflated reports whether o's lock is currently in the fat state.
func (l *ThinLocks) Inflated(o *object.Object) bool { return IsInflated(o.Header()) }

// HolderIndex returns the thread index currently holding o's lock, or 0
// if unlocked. For an inflated lock it consults the monitor.
func (l *ThinLocks) HolderIndex(o *object.Object) uint16 {
	w := o.Header()
	if !IsInflated(w) {
		return ThinOwner(w)
	}
	return l.table.Get(FatIndex(w)).OwnerIndex()
}

// Monitor returns the fat lock of an inflated object, or nil if the
// object's lock is thin. Intended for tests and diagnostics.
func (l *ThinLocks) Monitor(o *object.Object) *monitor.Monitor {
	w := o.Header()
	if !IsInflated(w) {
		return nil
	}
	return l.table.Get(FatIndex(w))
}
