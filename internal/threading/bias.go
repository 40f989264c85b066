// Bias slots: the per-thread half of lock reservation (internal/biased).
//
// A biased lock's recursion depth is deliberately NOT kept in the shared
// lock word — that is what lets the owner reacquire and release without
// writing the word. Instead each Thread carries a small table
// of bias slots; a slot records one object the thread has reserved, the
// exact biased header word it installed, and the current recursion
// depth. The owning goroutine is the only writer of a slot; a revoking
// thread reads it (after winning the revocation sentinel CAS on the
// object header) to learn the depth at which the bias must be walked to
// a conventional thin or fat lock. The depth store is a full atomic
// store so the owner's store→load sequence and the revoker's
// store(CAS)→load sequence form a Dekker-style handshake: at least one
// side observes the other.

package threading

import "sync/atomic"

// BiasSlots is the number of objects one thread can have reserved at a
// time. When the table is full further objects simply aren't biased
// (the locker falls back to its ordinary CAS path), so the size is a
// quality knob, not a correctness bound.
//
// A slot is freed only when its owner sees the reservation end: a Wait
// or overflow self-revoke, or a lock or unlock that meets the revocation
// sentinel or finds the reservation gone after publishing its depth. A
// reserved object that simply dies keeps its slot, so over its lifetime
// a thread reserves at most BiasSlots such objects. The benchmark's
// counts show it: vm-fresh installs exactly 8 reservations per 264k-op
// sample, and monitor-churn 128 (2 threads × 8 generations × 8 slots).
// A reservation revoked or transferred while its owner is between
// operations keeps its slot too: the owner's later locks and unlocks
// dispatch on the conventional word and never look at the slot.
const BiasSlots = 8

// BiasSlot is one reservation held by a thread. Only the owning
// goroutine writes it; revokers read it through the atomics.
type BiasSlot struct {
	id    atomic.Uint64 // object allocation id; 0 = slot free
	word  atomic.Uint32 // biased header word this thread installed
	depth atomic.Uint64 // current recursion depth (locks held)
}

// ObjectID returns the id of the reserved object (0 for a free slot).
func (s *BiasSlot) ObjectID() uint64 { return s.id.Load() }

// Word returns the biased header word the owner installed.
func (s *BiasSlot) Word() uint32 { return s.word.Load() }

// SetWord records the biased header word about to be installed. Owner
// only.
func (s *BiasSlot) SetWord(w uint32) { s.word.Store(w) }

// Depth returns the recursion depth published in the slot.
func (s *BiasSlot) Depth() uint64 { return s.depth.Load() }

// SetDepth publishes a new recursion depth. Owner only. The atomic
// store is the owner's half of the revocation handshake.
func (s *BiasSlot) SetDepth(d uint64) { s.depth.Store(d) }

// BiasSlotFor returns the slot this thread holds for the object with
// the given allocation id, or nil. Safe to call from any goroutine
// (revokers scan the owner's table); the result is meaningful to a
// revoker only while it holds the object's revocation sentinel.
func (t *Thread) BiasSlotFor(id uint64) *BiasSlot {
	if id == 0 {
		return nil
	}
	for i := range t.biasSlots {
		if t.biasSlots[i].id.Load() == id {
			return &t.biasSlots[i]
		}
	}
	return nil
}

// ClaimBiasSlot reserves a slot for the object with the given id and
// returns it, or nil when the table is full. Owner only. A slot already
// holding the same id is reused — the table must never hold two slots
// for one object, or BiasSlotFor becomes ambiguous (possible when a
// transferred-away reservation left a stale slot behind and the object
// is re-reserved). The caller must SetWord/SetDepth before publishing
// the biased header word, and ReleaseBiasSlot when the reservation
// dies.
func (t *Thread) ClaimBiasSlot(id uint64) *BiasSlot {
	var free *BiasSlot
	for i := range t.biasSlots {
		s := &t.biasSlots[i]
		switch s.id.Load() {
		case id:
			return s
		case 0:
			if free == nil {
				free = s
			}
		}
	}
	if free != nil {
		free.id.Store(id)
		t.biasClaimed++
	}
	return free
}

// ReleaseBiasSlot frees s, one of this thread's slots. Owner only. The
// depth and word are cleared before the id so a concurrent scanner
// never pairs a recycled id with stale state. Releasing a free slot
// does nothing.
func (t *Thread) ReleaseBiasSlot(s *BiasSlot) {
	if s.id.Load() == 0 {
		return
	}
	s.depth.Store(0)
	s.word.Store(0)
	s.id.Store(0)
	t.biasClaimed--
}

// BiasSlotsFull reports whether every bias slot is claimed, so no new
// object can be reserved. Owner only; O(1), for the lock fast path.
func (t *Thread) BiasSlotsFull() bool { return t.biasClaimed == BiasSlots }
