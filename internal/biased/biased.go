// Package biased implements lock reservation (biased locking) on the
// paper's 24-bit lock field — the historically-next design after thin
// locks, which replaces the compare-and-swap the thin-lock fast path
// pays on every initial acquisition for objects one thread locks
// repeatedly.
//
// An unlocked object's first locker does not take the lock so much as
// *reserve* it: it installs a biased word (core.BiasedWord) carrying its
// thread index and a small class epoch, and records the reservation in
// one of its per-thread bias slots (threading.BiasSlot). From then on
// the owner's lock and unlock are a header load that finds the word
// biased to it, a slot lookup, one atomic store of the new recursion
// depth into the slot, and one validating load of the header; the owner
// never writes the shared lock word. The depth store followed by the
// header load is the owner's half of a Dekker-style handshake with
// revokers, so it must be sequentially consistent: Go compiles it to
// XCHG on amd64, a locked instruction just like the CAS it replaces.
// The saving over a thin lock is therefore not the atomic itself but
// the shared-word write, and on the benchmark's reacquire workload it
// does not show (DESIGN.md §7, EXPERIMENTS.md).
//
// Lock and Unlock load the header once and dispatch on it. A word
// biased to the caller takes the reservation path above. An unlocked
// word the caller will not reserve — bias disabled, the object revoked
// (FlagBiasDead), or all of the caller's bias slots claimed — takes the
// paper's one-CAS acquire, and a thin word the caller owns at count 0
// is released with the paper's plain store, exactly as in
// internal/core. Everything else goes to the slow path.
//
// Revocation. When another thread needs a reserved object it CASes the
// biased word to a revocation sentinel (owner index 0), which makes it
// the only writer of the word. It then finds the reserving thread
// through the registry (threading.Registry.Lookup), reads the depth the
// owner last published in its bias slot — the revocation's
// linearization point — and rewrites the header to a conventional
// word: thin owned-by-reserver at that depth, or unlocked when the
// depth was 0. Finally it unparks the reserver (threading.Parker) in
// case it is stalled mid-handshake. Because the revoker's CAS and
// depth read bracket the owner's depth store and header load under Go's
// sequentially consistent atomics, one side always observes the other:
// either the revoker's depth read includes the owner's in-flight
// operation, or the owner's validating load sees the sentinel and
// reconciles against whatever word the revoker published. A revoked
// object can never be re-reserved (a sticky flags bit records the
// revocation), so the fall-back is the paper's protocol: thin words
// with a CAS acquire, inflating to an internal/monitor fat lock on
// contention, count overflow, or Wait.
//
// Epochs. Each biased word carries a class epoch. When a class of
// objects churns owners — revocation after revocation — the class's
// epoch is bumped (bulk rebias): reservations stamped with the old
// epoch become *stale*, and a contender finding a stale, unheld
// reservation takes the bias over for itself instead of revoking to
// thin, at the cost of one CAS. Past a second threshold the class is
// declared unbiasable (bulk revoke) and new objects of the class go
// straight to thin words.
package biased

import (
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/arch"
	"thinlock/internal/core"
	"thinlock/internal/lockdep"
	"thinlock/internal/lockprof"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// ErrIllegalMonitorState is returned when a thread unlocks, waits on or
// notifies an object whose monitor it does not own.
var ErrIllegalMonitorState = monitor.ErrIllegalMonitorState

// FlagBiasDead is the sticky object-flags bit a revoker sets before
// publishing the walked word: a revoked object is never re-reserved.
// Without it a spinning contender could chase an object that re-biases
// between its header loads. Bit 0 is core.FlagFLC.
const FlagBiasDead uint32 = 1 << 1

// maxBiasDepth is the deepest recursion a reservation can carry: a
// revocation at depth d seeds a thin count of d−1, which must fit the
// 7-bit count space below core.BiasBit. The owner self-revokes directly
// to a fat lock on the acquisition past the cap.
const maxBiasDepth = core.BiasMaxThinCount + 1

// biasOwnerMask selects the bits that say whether a word is a bias
// reservation and whose: the shape bit, core.BiasBit and the owner
// index. A word is reserved by the thread with pre-shifted index s
// exactly when w&biasOwnerMask == core.BiasBit|s, and is the revocation
// sentinel when it equals core.BiasBit alone.
const biasOwnerMask = core.ShapeBit | core.BiasBit | core.TIDMask

// thinNestedLimit is the XOR-check bound for this implementation's thin
// words (count capped at core.BiasMaxThinCount so core.BiasBit stays
// unambiguous): after XORing the loaded word with the owner's
// pre-shifted index, any value below it means "thin, owned by this
// thread, count < 127".
const thinNestedLimit = uint32(core.BiasMaxThinCount) << core.CountShift

// Default heuristic thresholds (see Options).
const (
	DefaultEpochBits       = 2
	DefaultRebiasThreshold = 4
	DefaultRevokeThreshold = 16
)

// Options configures a biased Locker.
type Options struct {
	// DisableBias turns reservation off entirely: the implementation
	// degenerates to a plain thin lock (with the narrower 7-bit count).
	// Useful as an ablation baseline.
	DisableBias bool
	// DisableRebias turns off the epoch machinery: reservations are
	// never transferred and class epochs never bump, so every
	// contended reservation pays a full revocation.
	DisableRebias bool
	// EpochBits is the width of the per-class bias epoch stored in the
	// biased word (1..core.MaxBiasEpochBits; 0 means DefaultEpochBits).
	EpochBits int
	// RebiasThreshold is the number of revocations of a class after
	// which its epoch is bumped, invalidating (and making
	// transferable) all outstanding reservations of that class
	// (0 means DefaultRebiasThreshold).
	RebiasThreshold int
	// RevokeThreshold is the number of revocations of a class after
	// which the class becomes unbiasable (0 means
	// DefaultRevokeThreshold).
	RevokeThreshold int
	// CPU is the simulated machine for the thin-lock fall-back CAS
	// (the biased fast path needs no CAS on any machine). The default
	// is PowerPCUP.
	CPU arch.CPU
	// TestMutations plants deliberate protocol bugs so the
	// differential checker can prove it detects them. Test-only.
	TestMutations Mutations
}

// Stats is a snapshot of a biased Locker's internal counters. Biased
// fast-path acquisitions are deliberately not counted here — an
// implementation counter would put a write to memory every thread
// shares on the path whose whole point is writing none; enable
// internal/telemetry (CtrBiasedAcquires) to count them.
type Stats struct {
	// BiasInstalls counts reservations installed on unlocked objects.
	BiasInstalls uint64
	// BiasTransfers counts stale reservations taken over by a new
	// thread without a full revocation.
	BiasTransfers uint64
	// RevocationsContention counts reservations revoked by a
	// contending thread.
	RevocationsContention uint64
	// RevocationsWait counts owner self-revocations forced by Wait.
	RevocationsWait uint64
	// RevocationsOverflow counts owner self-revocations forced by
	// recursion past the biased depth cap.
	RevocationsOverflow uint64
	// BulkRebiases counts class-epoch bumps.
	BulkRebiases uint64
	// BulkRevokes counts classes declared unbiasable.
	BulkRevokes uint64
	// InflationsContention counts inflations of the thin fall-back
	// caused by contention.
	InflationsContention uint64
	// InflationsOverflow counts inflations by count overflow (biased
	// self-revocation past the cap, or the thin fall-back's 129th
	// nested lock).
	InflationsOverflow uint64
	// InflationsWait counts inflations caused by a wait operation.
	InflationsWait uint64
	// SpinAcquisitions counts slow-path acquisitions that spun for a
	// thin lock held by another thread.
	SpinAcquisitions uint64
	// SpinRounds counts individual back-off pauses across all spins.
	SpinRounds uint64
	// FatLocks is the number of monitors ever allocated.
	FatLocks int
}

// Revocations returns the total number of revocations for any cause.
func (s Stats) Revocations() uint64 {
	return s.RevocationsContention + s.RevocationsWait + s.RevocationsOverflow
}

// Inflations returns the total number of inflations for any cause.
// Every allocated monitor comes from exactly one inflation, so this
// always equals FatLocks after quiescence.
func (s Stats) Inflations() uint64 {
	return s.InflationsContention + s.InflationsOverflow + s.InflationsWait
}

// classBias is the per-class bulk-rebias/bulk-revoke state. It is only
// touched on slow paths (install, revocation); the biased fast path
// never checks epochs — a reservation is valid for its owner no matter
// how stale, staleness only changes what a *contender* does with it.
type classBias struct {
	epoch       atomic.Uint32
	revocations atomic.Uint32
	unbiasable  atomic.Bool
}

// Locker implements lockapi.Locker with lock reservation over the
// standard thin/fat fall-back.
type Locker struct {
	table *monitor.Table
	cpu   arch.CPU
	mut   Mutations

	disableBias   bool
	disableRebias bool
	epochBits     int
	rebiasEvery   uint32
	revokeAt      uint32

	classes sync.Map // class string → *classBias

	biasInstalls   atomic.Uint64
	biasTransfers  atomic.Uint64
	revContention  atomic.Uint64
	revWait        atomic.Uint64
	revOverflow    atomic.Uint64
	bulkRebiases   atomic.Uint64
	bulkRevokes    atomic.Uint64
	inflContention atomic.Uint64
	inflOverflow   atomic.Uint64
	inflWait       atomic.Uint64
	spinAcq        atomic.Uint64
	spinRounds     atomic.Uint64
}

// New returns a biased Locker with the given options.
func New(opts Options) *Locker {
	bits := opts.EpochBits
	if bits <= 0 || bits > core.MaxBiasEpochBits {
		bits = DefaultEpochBits
	}
	rebias := opts.RebiasThreshold
	if rebias <= 0 {
		rebias = DefaultRebiasThreshold
	}
	revoke := opts.RevokeThreshold
	if revoke <= 0 {
		revoke = DefaultRevokeThreshold
	}
	return &Locker{
		table:         monitor.NewTable(),
		cpu:           opts.CPU,
		mut:           opts.TestMutations,
		disableBias:   opts.DisableBias,
		disableRebias: opts.DisableRebias,
		epochBits:     bits,
		rebiasEvery:   uint32(rebias),
		revokeAt:      uint32(revoke),
	}
}

// NewDefault returns the standard configuration.
func NewDefault() *Locker { return New(Options{}) }

// Name implements lockapi.Locker.
func (l *Locker) Name() string {
	switch {
	case l.disableBias:
		return "Biased-off"
	case l.disableRebias:
		return "Biased-norebias"
	default:
		return "Biased"
	}
}

// Stats returns a snapshot of the instance's counters.
func (l *Locker) Stats() Stats {
	return Stats{
		BiasInstalls:          l.biasInstalls.Load(),
		BiasTransfers:         l.biasTransfers.Load(),
		RevocationsContention: l.revContention.Load(),
		RevocationsWait:       l.revWait.Load(),
		RevocationsOverflow:   l.revOverflow.Load(),
		BulkRebiases:          l.bulkRebiases.Load(),
		BulkRevokes:           l.bulkRevokes.Load(),
		InflationsContention:  l.inflContention.Load(),
		InflationsOverflow:    l.inflOverflow.Load(),
		InflationsWait:        l.inflWait.Load(),
		SpinAcquisitions:      l.spinAcq.Load(),
		SpinRounds:            l.spinRounds.Load(),
		FatLocks:              l.table.Len(),
	}
}

// classFor returns (creating on first use) the per-class bias state.
func (l *Locker) classFor(class string) *classBias {
	if c, ok := l.classes.Load(class); ok {
		return c.(*classBias)
	}
	c, _ := l.classes.LoadOrStore(class, new(classBias))
	return c.(*classBias)
}

// Lock acquires o's monitor for t, dispatching on one load of the
// header (see the package comment): a word reserved by t takes the
// biased path, an unlocked word t will not reserve the paper's one-CAS
// acquire, and every other word lockSlow.
func (l *Locker) Lock(t *threading.Thread, o *object.Object) {
	l.lockBody(t, o)
	if d := lockdep.Active(); d != nil {
		d.Acquired(t, o)
	}
}

func (l *Locker) lockBody(t *threading.Thread, o *object.Object) {
	if l.mut.SkipOwnerValidation && lockTrustingSlot(t, o) {
		return
	}
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	switch {
	case w&biasOwnerMask == core.BiasBit|t.Shifted():
		// Reserved by this thread: the owner's half of the handshake.
		if s := t.BiasSlotFor(o.ID()); s != nil {
			if d := s.Depth(); d < maxBiasDepth {
				s.SetDepth(d + 1) // Dekker publish
				if atomic.LoadUint32(hp) == s.Word() {
					if tel := telemetry.Active(); tel != nil {
						tel.Inc(t, telemetry.CtrBiasedAcquires)
					}
					return
				}
				if l.reconcileLock(t, o, s, d+1) {
					return
				}
				// The reservation was revoked at depth 0 and not granted
				// to us; acquire conventionally.
			}
		}
	case w&^core.MiscMask == 0 && !l.mayReserve(t, o):
		// Unlocked, and this thread will not reserve it: the paper's
		// one-CAS acquire.
		if arch.CAS(l.cpu, hp, w, w|t.Shifted()) {
			return
		}
	}
	l.lockSlow(t, o)
}

// mayReserve reports whether t could reserve o on finding it unlocked:
// bias is on, o was never revoked, and t has a free bias slot. The
// class's bulk-revoke state is left to tryInstallBias, because reading
// it costs the class lookup this test keeps off the fast path.
func (l *Locker) mayReserve(t *threading.Thread, o *object.Object) bool {
	return !l.disableBias && !t.BiasSlotsFull() && o.Flags()&FlagBiasDead == 0
}

// Unlock releases one level of o's monitor, dispatching on the header
// like Lock: a thin word t owns at count 0 takes the paper's plain
// store, a word reserved by t or the revocation sentinel the biased
// path, and every other word unlockSlow.
func (l *Locker) Unlock(t *threading.Thread, o *object.Object) error {
	err := l.unlockBody(t, o)
	if err == nil {
		if d := lockdep.Active(); d != nil {
			d.Released(t, o)
		}
	}
	return err
}

func (l *Locker) unlockBody(t *threading.Thread, o *object.Object) error {
	if l.mut.SkipOwnerValidation && unlockTrustingSlot(t, o) {
		return nil
	}
	hp := o.HeaderAddr()
	w := atomic.LoadUint32(hp)
	x := w ^ t.Shifted()
	switch {
	case x < core.CountUnit:
		// Thin, owned by this thread, count 0: final release.
		atomic.StoreUint32(hp, x)
		return nil
	case x&biasOwnerMask == core.BiasBit || w&biasOwnerMask == core.BiasBit:
		// Reserved by this thread, or mid-revocation (possibly of our
		// own held reservation).
		if s := t.BiasSlotFor(o.ID()); s != nil {
			if d := s.Depth(); d > 0 {
				s.SetDepth(d - 1) // Dekker publish
				if atomic.LoadUint32(hp) == s.Word() {
					return nil
				}
				l.reconcileUnlock(t, o, s, d-1)
				return nil
			}
			if atomic.LoadUint32(hp) == s.Word() {
				// Reserved by us but not held: reservation alone does
				// not confer ownership.
				return ErrIllegalMonitorState
			}
			// The unheld reservation is being revoked or transferred:
			// the slot is stale, and unlockSlow waits out the sentinel.
			t.ReleaseBiasSlot(s)
		}
	}
	return l.unlockSlow(t, o)
}

// Wait implements lockapi.Locker. Waiting requires queues: a held
// reservation is self-revoked straight to a fat lock; a thin-held
// object inflates as in the paper.
func (l *Locker) Wait(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	if ld := lockdep.Active(); ld != nil {
		ld.CondWaitBegin(t, o)
		ok, err := l.waitBody(t, o, d)
		ld.CondWaitEnd(t, o)
		return ok, err
	}
	return l.waitBody(t, o, d)
}

func (l *Locker) waitBody(t *threading.Thread, o *object.Object, d time.Duration) (bool, error) {
	if s := t.BiasSlotFor(o.ID()); s != nil && s.Depth() > 0 {
		if m := l.waitRevoke(t, o, s); m != nil {
			return m.Wait(t, d)
		}
		// A concurrent revoker walked the reservation to a
		// conventional word first; fall through to the header.
	}
	for {
		w := o.Header()
		switch {
		case core.IsInflated(w):
			return l.table.Get(core.FatIndex(w)).Wait(t, d)
		case core.IsBiasRevoking(w):
			l.awaitRevocation(t, o)
		case core.IsBiased(w):
			// Reserved (by us unheld, or by another thread): not owned.
			return false, ErrIllegalMonitorState
		case w&core.TIDMask == t.Shifted():
			l.inflWait.Add(1)
			telemetry.Inc(t, telemetry.CtrInflationsWait)
			lockprof.Inflation(t, o, lockprof.CauseWait)
			m := l.inflate(t, o, core.ThinCount(w)+1)
			return m.Wait(t, d)
		default:
			return false, ErrIllegalMonitorState
		}
	}
}

// Notify implements lockapi.Locker. A reserved or thin-locked object
// can have no waiters (waiting revokes/inflates first), so notify while
// owning one is a no-op.
func (l *Locker) Notify(t *threading.Thread, o *object.Object) error {
	if l.notifyFast(t, o) {
		return nil
	}
	return l.notifySlow(t, o, false)
}

// NotifyAll implements lockapi.Locker.
func (l *Locker) NotifyAll(t *threading.Thread, o *object.Object) error {
	if l.notifyFast(t, o) {
		return nil
	}
	return l.notifySlow(t, o, true)
}

// notifyFast reports whether t holds o through a live reservation — in
// which case o can have no waiters and the notify is a no-op.
func (l *Locker) notifyFast(t *threading.Thread, o *object.Object) bool {
	s := t.BiasSlotFor(o.ID())
	return s != nil && s.Depth() > 0 && atomic.LoadUint32(o.HeaderAddr()) == s.Word()
}

// notifySlow resolves the header conventionally.
func (l *Locker) notifySlow(t *threading.Thread, o *object.Object, all bool) error {
	for {
		w := o.Header()
		switch {
		case core.IsInflated(w):
			m := l.table.Get(core.FatIndex(w))
			if all {
				return m.NotifyAll(t)
			}
			return m.Notify(t)
		case core.IsBiasRevoking(w):
			// Our own held reservation may be mid-revocation; once the
			// revoker publishes the walked word we can classify it.
			l.awaitRevocation(t, o)
		case core.IsBiased(w):
			return ErrIllegalMonitorState
		case w&core.TIDMask == t.Shifted():
			return nil
		default:
			return ErrIllegalMonitorState
		}
	}
}

// Inflated reports whether o's lock is currently in the fat state.
func (l *Locker) Inflated(o *object.Object) bool { return core.IsInflated(o.Header()) }

// Biased reports whether o currently carries a live reservation.
func (l *Locker) Biased(o *object.Object) bool {
	w := o.Header()
	return core.IsBiased(w) && !core.IsBiasRevoking(w)
}

// HolderIndex returns the thread index currently holding o's lock, or 0
// if unlocked. A reservation alone is not a held lock: for a biased
// word the depth lives in the reserver's slot, which cannot be read
// reliably from outside a revocation, so biased words report 0; use
// Biased to distinguish reserved-unheld from unlocked.
func (l *Locker) HolderIndex(o *object.Object) uint16 {
	w := o.Header()
	if core.IsBiased(w) {
		return 0
	}
	if !core.IsInflated(w) {
		return core.ThinOwner(w)
	}
	owner := l.table.Get(core.FatIndex(w)).Owner()
	if owner == nil {
		return 0
	}
	return owner.Index()
}

// Monitor returns the fat lock of an inflated object, or nil. Intended
// for tests and diagnostics.
func (l *Locker) Monitor(o *object.Object) *monitor.Monitor {
	w := o.Header()
	if !core.IsInflated(w) {
		return nil
	}
	return l.table.Get(core.FatIndex(w))
}
