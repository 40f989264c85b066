package biased

import (
	"sync/atomic"

	"thinlock/internal/arch"
	"thinlock/internal/core"
	"thinlock/internal/lockevent"
	"thinlock/internal/monitor"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// lockSlow handles everything the biased fast path does not: first
// acquisitions (reserve or thin-CAS), nested thin locking, revocation
// of other threads' reservations, inflation, and contention. The
// slow-path span events live here, off the fast path, as in core.
func (l *Locker) lockSlow(t *threading.Thread, o *object.Object) {
	lockevent.Emit(lockevent.SlowEnter, t, o)
	start := lockevent.Start(lockevent.SlowExit)
	l.lockSlowBody(t, o)
	lockevent.End(lockevent.SlowExit, t, o, start)
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
			lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitFat))
			l.table.Get(core.FatIndex(w)).Enter(t, o)
			return

		case core.IsBiasRevoking(w):
			// Another thread is mid-revocation (possibly of our own
			// reservation); it owns the word until it publishes the
			// walked state.
			l.spinRounds.Add(1)
			lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitRevocation))
			b.Pause()

		case core.IsBiased(w):
			if s := slotFor(t, o, w); s != nil && w == s.Word() {
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
			lockevent.Emit(lockevent.InflateOverflow, t, o)
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
					lockevent.Emit(lockevent.InflateContention, t, o)
					l.inflate(t, o, 1)
				}
				return
			}
			lockevent.Emit(lockevent.CASFail, t, o)

		default:
			// Thin-locked by another thread: spin with back-off until
			// the owner releases.
			spun = true
			l.spinRounds.Add(1)
			lockevent.EmitValue(lockevent.Spin, t, o, int64(lockevent.WaitSpin))
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
	i := t.ClaimBiasSlot(o.ID())
	if i < 0 {
		return false // a zero-value object, whose id 0 marks a free slot
	}
	s := t.BiasSlot(i)
	nw := core.BiasedWord(t.Index(), i, cls.epoch.Load(), l.epochBits, w&core.MiscMask)
	s.SetWord(nw)
	s.SetDepth(1)
	if o.CASHeader(w, nw) {
		l.biasInstalls.Add(1)
		lockevent.Emit(lockevent.BiasInstall, t, o)
		return true
	}
	t.ReleaseBiasSlot(s)
	return false
}

// inflate converts the thin lock the calling thread owns into a fat
// lock holding `locks` nested locks, as in core: the header store may
// be plain because the inflating thread owns the thin word.
func (l *Locker) inflate(t *threading.Thread, o *object.Object, locks uint32) *monitor.Monitor {
	m, idx := l.table.Allocate()
	m.SeedOwner(t, locks)
	o.SetHeader(core.InflatedWord(idx, o.Header()))
	return m
}

// unlockSlow releases one level through the header: nested and final
// thin unlocks (plain stores, the paper's discipline), fat exits, and
// errors. A revocation sentinel is waited out and the walked word
// reclassified.
func (l *Locker) unlockSlow(t *threading.Thread, o *object.Object) error {
	lockevent.Emit(lockevent.SlowUnlock, t, o)
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

// awaitRevocation waits out a revocation sentinel on o's header: a few
// back-off rounds, then a park on o in the parking lot, which whoever
// publishes the walked word ends (publishRevoked). The stall is the
// handshake's cost, timed only when an observer records it.
func (l *Locker) awaitRevocation(t *threading.Thread, o *object.Object) {
	hp := o.HeaderAddr()
	if !core.IsBiasRevoking(atomic.LoadUint32(hp)) {
		return
	}
	// This path does not end in an acquisition (unlock and wait also
	// ride out sentinels), so the episode ends with Unblock.
	lockevent.EmitValue(lockevent.Block, t, o, int64(lockevent.WaitRevocation))
	start := lockevent.Start(lockevent.Unblock)
	revoking := func() bool { return core.IsBiasRevoking(atomic.LoadUint32(hp)) }
	var b arch.Backoff
	for revoking() {
		if b.Rounds() >= 8 {
			threading.Park(t, o, revoking)
		} else {
			b.Pause()
		}
	}
	lockevent.End(lockevent.Unblock, t, o, start)
}

// publishRevoked ends a revocation: it stores the walked word w over the
// sentinel and wakes every thread parked on o to wait the sentinel out.
// The header store precedes the bucket lock UnparkAll takes, so a waiter
// whose validate still saw the sentinel is already parked.
func publishRevoked(o *object.Object, w uint32) {
	o.SetHeader(w)
	threading.UnparkAll(o)
}
