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
	// bias slot without consulting the object header at all: Lock and
	// Unlock look the slot up before the header dispatch, and a slot
	// found is used without validating the header after publishing the
	// new depth — it breaks the owner's half of the Dekker store/load
	// handshake. An owner that keeps using a revoked reservation
	// updates only its private slot, so its nested locks and unlocks
	// never reach the shared word: the final release is lost and a
	// contender waits forever (a stuck schedule), or the leaked lock
	// word surfaces as a quiescence failure.
	SkipOwnerValidation bool
}

// lockTrustingSlot is the SkipOwnerValidation mutant's Lock: it reports
// true after taking a level through t's slot for o, if there is one
// below the depth cap, without reading o's header.
func lockTrustingSlot(t *threading.Thread, o *object.Object) bool {
	if s := t.BiasSlotFor(o.ID()); s != nil {
		if d := s.Depth(); d < maxBiasDepth {
			s.SetDepth(d + 1)
			return true
		}
	}
	return false
}

// unlockTrustingSlot is the mutant's Unlock: it reports true after
// releasing a level through t's slot for o, if that slot is held,
// without reading o's header.
func unlockTrustingSlot(t *threading.Thread, o *object.Object) bool {
	if s := t.BiasSlotFor(o.ID()); s != nil {
		if d := s.Depth(); d > 0 {
			s.SetDepth(d - 1)
			return true
		}
	}
	return false
}
