package biased

import (
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

// lockSlow handles everything the biased fast path does not: first
// acquisitions (reserve or thin-CAS), nested thin locking, revocation
// of other threads' reservations, inflation, and contention. The
// telemetry and lockprof wrappers live here, off the fast path, on the
// same zero-alloc-when-disabled pattern as core.
func (l *Locker) lockSlow(t *threading.Thread, o *object.Object) {
	m := telemetry.Active()
	p := lockprof.Active()
	if m == nil && p == nil {
		l.lockSlowBody(t, o)
		return
	}
	if m != nil {
		m.Inc(t, telemetry.CtrSlowPathEntries)
	}
	if p != nil {
		p.SlowPathEnter(t, o)
	}
	start := telemetry.Now()
	l.lockSlowBody(t, o)
	elapsed := telemetry.Now() - start
	if m != nil {
		m.Observe(t, telemetry.HistAcquireSlowNs, elapsed)
	}
	if p != nil {
		p.SlowPathExit(t, o, elapsed)
	}
}

// lockSlowBody is the slow-path state machine proper.
func (l *Locker) lockSlowBody(t *threading.Thread, o *object.Object) {
	hp := o.HeaderAddr()
	shifted := t.Shifted()
	var b arch.Backoff
	spun := false
	for {
		w := atomic.LoadUint32(hp)
		x := w ^ shifted
		switch {
		case x < thinNestedLimit:
			// Thin, owned by this thread, count < 127: nested lock via
			// the owner's plain store, exactly as in core.
			atomic.StoreUint32(hp, w+core.CountUnit)
			return

		case core.IsInflated(w):
			lockdep.Blocked(t, o, lockdep.WaitFat)
			l.table.Get(core.FatIndex(w)).Enter(t)
			return

		case core.IsBiasRevoking(w):
			// Another thread is mid-revocation (possibly of our own
			// reservation); it owns the word until it publishes the
			// walked state.
			lockdep.Blocked(t, o, lockdep.WaitRevocation)
			l.spinRounds.Add(1)
			telemetry.Inc(t, telemetry.CtrSpinRounds)
			b.Pause()

		case core.IsBiased(w):
			if s := t.BiasSlotFor(o.ID()); s != nil && w == s.Word() {
				// Our own reservation at the depth cap (the fast path
				// declines at maxBiasDepth): self-revoke straight to a
				// fat lock carrying the full depth.
				if l.selfRevokeOverflow(t, o, s, w) {
					return
				}
				continue // lost the sentinel race to a concurrent revoker
			}
			// Reserved by another thread (or a stale image of our own
			// index): revoke. A stale-epoch, unheld reservation may be
			// transferred to us instead, which acquires.
			if l.revoke(t, o, w) {
				return
			}

		case x&core.TIDMask == 0:
			// Thin, owned by this thread, count saturated at 127: the
			// next lock would collide with the bias bit, so inflate,
			// carrying the full nesting depth into the fat lock.
			l.inflOverflow.Add(1)
			telemetry.Inc(t, telemetry.CtrInflationsOverflow)
			lockprof.Inflation(t, o, lockprof.CauseOverflow)
			l.inflate(t, o, uint32(core.BiasMaxThinCount)+2)
			return

		case w&core.TIDMask == 0:
			// Unlocked: reserve it if the object and class are still
			// biasable, else take it as a conventional thin lock.
			if l.tryInstallBias(t, o, w) {
				return
			}
			if arch.CAS(l.cpu, hp, w, w&core.MiscMask|shifted) {
				if spun {
					// Locality of contention (§2.3.4): an object that
					// has shown contention once will again.
					l.spinAcq.Add(1)
					l.inflContention.Add(1)
					telemetry.Inc(t, telemetry.CtrInflationsContention)
					lockprof.Inflation(t, o, lockprof.CauseContention)
					l.inflate(t, o, 1)
				}
				return
			}
			telemetry.Inc(t, telemetry.CtrCASFailures)
			lockprof.CASFailure(t)

		default:
			// Thin-locked by another thread: spin with back-off until
			// the owner releases.
			lockdep.Blocked(t, o, lockdep.WaitSpin)
			spun = true
			l.spinRounds.Add(1)
			telemetry.Inc(t, telemetry.CtrSpinRounds)
			b.Pause()
		}
	}
}

// tryInstallBias attempts to reserve the unlocked object o (header w)
// for t. The bias slot is fully initialized before the CAS publishes
// the reservation, so a revoker that wins the sentinel later always
// finds consistent slot state.
func (l *Locker) tryInstallBias(t *threading.Thread, o *object.Object, w uint32) bool {
	if !l.mayReserve(t, o) {
		return false
	}
	cls := l.classFor(o.Class())
	if cls.unbiasable.Load() {
		return false
	}
	s := t.ClaimBiasSlot(o.ID()) // not nil: mayReserve saw a free slot
	nw := core.BiasedWord(t.Index(), cls.epoch.Load(), l.epochBits, w&core.MiscMask)
	s.SetWord(nw)
	s.SetDepth(1)
	if o.CASHeader(w, nw) {
		l.biasInstalls.Add(1)
		telemetry.Inc(t, telemetry.CtrBiasInstalls)
		return true
	}
	t.ReleaseBiasSlot(s)
	return false
}

// inflate converts the thin lock the calling thread owns into a fat
// lock holding `locks` nested locks, as in core: the header store may
// be plain because the inflating thread owns the thin word.
func (l *Locker) inflate(t *threading.Thread, o *object.Object, locks uint32) *monitor.Monitor {
	m := l.table.Allocate()
	m.SeedOwner(t, locks)
	o.SetHeader(core.InflatedWord(m.Index(), o.Header()))
	return m
}

// unlockSlow releases one level through the header: nested and final
// thin unlocks (plain stores, the paper's discipline), fat exits, and
// errors. A revocation sentinel is waited out and the walked word
// reclassified.
func (l *Locker) unlockSlow(t *threading.Thread, o *object.Object) error {
	lockprof.UnlockSlow(t, o)
	hp := o.HeaderAddr()
	shifted := t.Shifted()
	for {
		w := atomic.LoadUint32(hp)
		x := w ^ shifted
		switch {
		case x < core.CountUnit:
			// Thin, owned by this thread, count 0: final release.
			atomic.StoreUint32(hp, w^shifted)
			return nil
		case x < core.BiasBit:
			// Thin, owned by this thread, count ≥ 1: nested release.
			atomic.StoreUint32(hp, w-core.CountUnit)
			return nil
		case core.IsInflated(w):
			return l.table.Get(core.FatIndex(w)).Exit(t)
		case core.IsBiasRevoking(w):
			l.awaitRevocation(t, o)
		default:
			// Unlocked, reserved by another thread, or thin-locked by
			// another thread: this thread does not own the monitor.
			return ErrIllegalMonitorState
		}
	}
}

// awaitRevocation waits out a revocation sentinel on o's header. The
// revoker unparks the reserving thread when it publishes the walked
// word; the parker timeout bounds the case where the waiting thread is
// not the one the revoker knows about. The stall is the handshake's
// cost and is recorded when telemetry is enabled.
func (l *Locker) awaitRevocation(t *threading.Thread, o *object.Object) {
	hp := o.HeaderAddr()
	if !core.IsBiasRevoking(atomic.LoadUint32(hp)) {
		return
	}
	tel := telemetry.Active()
	var start int64
	if tel != nil {
		start = telemetry.Now()
	}
	// This path does not end in an acquisition (unlock and wait also
	// ride out sentinels), so the wait-for edge is cleared explicitly.
	lockdep.Blocked(t, o, lockdep.WaitRevocation)
	var b arch.Backoff
	for core.IsBiasRevoking(atomic.LoadUint32(hp)) {
		if b.Rounds() >= 8 {
			t.Parker().ParkTimeout(100 * time.Microsecond)
		} else {
			b.Pause()
		}
	}
	lockdep.Unblocked(t)
	if tel != nil {
		tel.Observe(t, telemetry.HistBiasHandshakeNs, telemetry.Now()-start)
	}
}
