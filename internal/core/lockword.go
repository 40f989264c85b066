// Package core implements thin locks, the paper's primary contribution.
//
// The 24 high bits of each object's header word form the lock field
// (Figure 1). The first bit is the monitor shape bit: 0 for a thin lock,
// 1 for an inflated (fat) lock. A thin lock holds a 15-bit owner thread
// index and an 8-bit nested lock count storing (locks − 1); thread index
// 0 with count 0 means unlocked. An inflated lock holds a 23-bit index
// into the global monitor table. The low 8 bits of the word are
// miscellaneous header data that are constant while the object may be
// locked, so lock-field updates can rewrite the whole word.
//
// The protocol's costs are asymmetric by design (§2.3): the only atomic
// operation is the compare-and-swap on initial acquisition. Nested
// locking, nested unlocking and final unlocking are plain loads and
// stores, justified by the locking discipline that no thread other than
// the owner ever writes the lock word of a thin-locked object.
package core

import "thinlock/internal/threading"

// Lock word layout. Bit 31 is the monitor shape bit; bits 30..16 hold the
// thread index of a thin lock; bits 15..8 hold the thin nested count;
// bits 30..8 hold the monitor index of an inflated lock; bits 7..0 are
// the miscellaneous (non-lock) header bits.
const (
	// ShapeBit distinguishes thin (0) from inflated (1) lock words.
	ShapeBit uint32 = 1 << 31

	// IndexShift positions the owner thread index.
	IndexShift = threading.IndexShift // 16

	// TIDMask selects the thread-index bits of a thin lock word.
	TIDMask uint32 = 0x7FFF << IndexShift

	// CountShift positions the thin nested lock count.
	CountShift = 8

	// CountUnit is the value added to the lock word to increment the
	// nested count by one.
	CountUnit uint32 = 1 << CountShift

	// CountMask selects the thin count bits.
	CountMask uint32 = 0xFF << CountShift

	// MiscMask selects the non-lock header bits.
	MiscMask uint32 = 0xFF

	// MaxThinCount is the largest encodable thin count. Since the count
	// stores (locks − 1), a thin lock supports 256 nested locks; the
	// 257th acquisition overflows and inflates (§2.3: "in our
	// implementation, we define excessive as 257").
	MaxThinCount = 255

	// nestedCheckLimit is the bound used by the nested-locking check:
	// after XORing the loaded word with the owner's pre-shifted thread
	// index, any value below 255<<8 means "thin, owned by this thread,
	// count < 255" (§2.3.3). The misc bits pass through the XOR
	// untouched and always stay below the limit.
	nestedCheckLimit = uint32(MaxThinCount) << CountShift

	// FatIndexShift positions the monitor index of an inflated word.
	FatIndexShift = 8

	// FatIndexMask selects the monitor-index bits of an inflated word.
	FatIndexMask uint32 = 0x7FFFFF << FatIndexShift
)

// IsInflated reports whether w is an inflated lock word.
func IsInflated(w uint32) bool { return w&ShapeBit != 0 }

// IsUnlocked reports whether w is a thin, unlocked word.
func IsUnlocked(w uint32) bool { return w&^MiscMask == 0 }

// ThinOwner returns the owner thread index of a thin lock word (0 if
// unlocked). Meaningless for inflated words.
func ThinOwner(w uint32) uint16 { return uint16((w & TIDMask) >> IndexShift) }

// ThinCount returns the encoded nested count of a thin lock word, which
// is the number of locks minus one.
func ThinCount(w uint32) uint32 { return (w & CountMask) >> CountShift }

// FatIndex returns the monitor index of an inflated lock word.
func FatIndex(w uint32) uint32 { return (w & FatIndexMask) >> FatIndexShift }

// ThinWord assembles a thin lock word.
func ThinWord(owner uint16, count uint32, misc uint32) uint32 {
	return uint32(owner)<<IndexShift | count<<CountShift | misc&MiscMask
}

// InflatedWord assembles an inflated lock word referring to monitor index
// idx.
func InflatedWord(idx uint32, misc uint32) uint32 {
	return ShapeBit | idx<<FatIndexShift | misc&MiscMask
}

// Bias encoding (used by internal/biased).
//
// A biased ("reserved") lock word is a post-paper extension of the same
// 24-bit lock field: shape bit 0 (so inflated-word tests are unchanged),
// the reserving thread's 15-bit index in the usual owner position, and
// the top bit of the count field — BiasBit — set to mark the word as a
// reservation rather than a held thin lock. The seven count bits below
// BiasBit carry a small bias epoch in the low bits (up to
// MaxBiasEpochBits wide) and, at a fixed position above the widest
// epoch, the index of the reserving thread's bias slot:
//
//	bit 15   14..12  11..8  7..0
//	BiasBit  slot    epoch  misc
//
// The recursion depth of a biased lock is NOT stored in the word (it
// lives in the owner's per-thread bias slot, see threading.BiasSlot),
// which is what lets the owner reacquire and release without ever
// writing shared memory. Because the word names the slot, every path
// that holds the header in hand reads that one slot.
//
// An implementation that installs biased words must cap its own thin
// counts at BiasMaxThinCount so bit 15 unambiguously distinguishes the
// two flavours; core's standard thin locks never produce biased words.
const (
	// BiasBit marks a thin-shaped word as a bias reservation. It is the
	// top bit of the count field.
	BiasBit uint32 = 1 << 15

	// BiasMaxThinCount is the largest thin count an implementation that
	// also uses biased words may encode (bit 15 is reserved for BiasBit,
	// leaving 7 count bits: up to 128 nested locks).
	BiasMaxThinCount = 127

	// MaxBiasEpochBits bounds the epoch width: of the 7 count bits below
	// BiasBit, the top BiasSlotBits name the bias slot.
	MaxBiasEpochBits = 4

	// BiasSlotBits is the width of the slot field: one value per
	// threading.BiasSlots slot.
	BiasSlotBits = 3

	// BiasSlotShift positions the slot field above the widest epoch.
	BiasSlotShift = CountShift + MaxBiasEpochBits

	// BiasSlotMask selects the slot field of a biased word.
	BiasSlotMask uint32 = (1<<BiasSlotBits - 1) << BiasSlotShift
)

// Compile-time checks (a negative array length does not compile): the
// slot field names exactly the threading.BiasSlots slots a thread has,
// and it stays below BiasBit (bit 15).
var (
	_ [threading.BiasSlots - 1<<BiasSlotBits]struct{}
	_ [1<<BiasSlotBits - threading.BiasSlots]struct{}
	_ [15 - BiasSlotShift - BiasSlotBits]struct{}
)

// IsBiased reports whether w is a bias reservation word (for either a
// live reservation or a revocation in progress).
func IsBiased(w uint32) bool { return w&(ShapeBit|BiasBit) == BiasBit }

// IsBiasRevoking reports whether w is the revocation sentinel: a biased
// word with owner index 0, installed by a revoker to claim exclusive
// right to rewrite the word. No thread can bias to index 0 (reserved).
func IsBiasRevoking(w uint32) bool { return IsBiased(w) && w&TIDMask == 0 }

// BiasOwner returns the reserving thread index of a biased word.
func BiasOwner(w uint32) uint16 { return ThinOwner(w) }

// BiasSlotIndex returns the bias-slot index a biased word names: the
// slot of its reserving thread (or, for the revocation sentinel, of the
// thread whose reservation is being revoked) that holds its depth.
func BiasSlotIndex(w uint32) int { return int((w & BiasSlotMask) >> BiasSlotShift) }

// BiasEpoch extracts the epoch of a biased word given the configured
// epoch width in bits.
func BiasEpoch(w uint32, epochBits int) uint32 {
	return (w >> CountShift) & (1<<epochBits - 1)
}

// BiasedWord assembles a bias reservation word for the given owner, bias
// slot index (masked to BiasSlotBits), epoch (masked to epochBits) and
// misc bits.
func BiasedWord(owner uint16, slot int, epoch uint32, epochBits int, misc uint32) uint32 {
	return uint32(owner)<<IndexShift | BiasBit |
		uint32(slot)<<BiasSlotShift&BiasSlotMask |
		(epoch&(1<<epochBits-1))<<CountShift | misc&MiscMask
}

// BiasRevokingWord assembles the revocation sentinel for the biased
// word w: the owner index cleared, the slot, epoch and misc bits kept,
// so the owner of a held reservation that meets the sentinel still
// finds its slot. Given only misc bits, it returns the sentinel with
// slot and epoch 0.
func BiasRevokingWord(w uint32) uint32 { return BiasBit | w&^(ShapeBit|TIDMask) }
