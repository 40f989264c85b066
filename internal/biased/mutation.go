package biased

import (
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Mutations plants deliberate protocol bugs into the biased-locking
// implementation so the differential checker (internal/check) can prove
// it detects revocation-protocol failures, mirroring
// core.Options.TestMutations. All fields default to off; production
// configurations never set them.
type Mutations struct {
	// RevokeOffByOne makes the revocation walker seed the conventional
	// lock word with the owner's full recursion depth instead of
	// (depth − 1), the classic conversion error between "locks held"
	// and the thin count's (locks − 1) encoding. A revoked reservation
	// surfaces one phantom recursion level: an object revoked at depth
	// 0 appears locked once, and a revoked held lock needs one unlock
	// too many — an outcome divergence in any schedule that revokes.
	RevokeOffByOne bool

	// SkipOwnerValidation makes the owner's biased fast path trust its
	// bias slot without validating the object header: Lock and Unlock
	// take the slot that the header's slot field names, exactly as the
	// fast path does, and when that slot holds the object they use it
	// without checking that the header is this thread's reservation,
	// neither at dispatch nor after publishing the new depth — it breaks
	// the owner's half of the Dekker store/load handshake. A walked thin
	// or unlocked word names slot 0 through its count bits while the
	// count is below 16, and slot 0 holds a thread's first reservation,
	// so an owner keeps using a reservation revoked under it. It updates
	// only its private slot, so its nested locks and unlocks never reach
	// the shared word: the final release is lost and a contender waits
	// forever (a stuck schedule), or the leaked lock word surfaces as a
	// quiescence failure.
	SkipOwnerValidation bool
}

// lockTrustingSlot is the SkipOwnerValidation mutant's Lock: given the
// header word w it reports true after taking a level through the slot
// w's slot field names, if that slot holds o below the depth cap,
// without checking that w is this thread's reservation, before or after
// publishing the new depth.
func lockTrustingSlot(t *threading.Thread, o *object.Object, w uint32) bool {
	if s := slotFor(t, o, w); s != nil {
		if d := s.Depth(); d < maxBiasDepth {
			s.SetDepth(d + 1)
			return true
		}
	}
	return false
}

// unlockTrustingSlot is the mutant's Unlock: it reports true after
// releasing a level through the slot w's slot field names, if that slot
// holds o and is held, without checking the word.
func unlockTrustingSlot(t *threading.Thread, o *object.Object, w uint32) bool {
	if s := slotFor(t, o, w); s != nil {
		if d := s.Depth(); d > 0 {
			s.SetDepth(d - 1)
			return true
		}
	}
	return false
}
