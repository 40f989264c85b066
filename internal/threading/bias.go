// Bias slots: the per-thread half of lock reservation (internal/biased).
//
// A biased lock's recursion depth is deliberately NOT kept in the shared
// lock word — that is what lets the owner reacquire and release without
// writing the word. Instead each Thread carries a small table
// of bias slots; a slot records one object the thread has reserved, the
// exact biased header word it installed, and the current recursion
// depth. The biased word names its slot by index (core.BiasSlotIndex),
// so whoever holds the header word in hand — the owner locking or
// unlocking, or a revoker that has just read it — reads that one slot
// and checks its object id, without searching the table. The owning
// goroutine is the only writer of a slot; a revoking thread reads it
// (after winning the revocation sentinel CAS on the object header) to
// learn the depth at which the bias must be walked to a conventional
// thin or fat lock. The depth store is a full atomic store so the
// owner's store→load sequence and the revoker's store(CAS)→load
// sequence form a Dekker-style handshake: at least one side observes
// the other.

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
//
// A biased word names its slot in core.BiasSlotBits bits, and core
// checks at compile time that BiasSlots is 1 << core.BiasSlotBits.
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

// SetDepth publishes a new recursion depth. Owner only. The store is
// the owner's half of the revocation handshake, so it must be ordered
// before the owner's validating header load: it is a sequentially
// consistent atomic store, which Go compiles to XCHG on amd64, a locked
// instruction.
func (s *BiasSlot) SetDepth(d uint64) { s.depth.Store(d) }

// BiasSlot returns slot i of this thread's table (i taken modulo
// BiasSlots). Safe to call from any goroutine: a revoker reads the slot
// a biased word names, and what it reads is meaningful only while it
// holds the object's revocation sentinel.
func (t *Thread) BiasSlot(i int) *BiasSlot { return &t.biasSlots[uint(i)%BiasSlots] }

// ClaimBiasSlot reserves a slot for the object with the given id and
// returns its index, or -1 when the table is full or id is 0. Owner
// only. A slot already holding the same id is reused, so the table
// never holds two slots for one object and a reservation that comes
// back to this thread (a transfer away and back) keeps the slot that
// holds its id. The caller must SetWord/SetDepth before publishing the
// biased header word naming the slot, and ReleaseBiasSlot when the
// reservation dies.
func (t *Thread) ClaimBiasSlot(id uint64) int {
	if id == 0 {
		return -1 // id 0 marks a free slot, so it cannot be claimed
	}
	free := -1
	for i := range t.biasSlots {
		switch t.biasSlots[i].id.Load() {
		case id:
			return i
		case 0:
			if free < 0 {
				free = i
			}
		}
	}
	if free >= 0 {
		t.biasSlots[free].id.Store(id)
		t.biasClaimed++
	}
	return free
}

// ReleaseBiasSlot frees s, one of this thread's slots. Owner only. The
// depth and word are cleared before the id so a concurrent reader
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
