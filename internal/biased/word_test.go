package biased

import (
	"math/rand"
	"testing"

	"thinlock/internal/core"
	"thinlock/internal/threading"
)

// TestBiasedWordRoundTrip exhaustively round-trips the biased encoding
// over every owner index boundary, every epoch width, every epoch value
// the width can hold, every bias slot and misc patterns: the decode
// functions must recover exactly what was encoded, the shape predicates
// must classify the word as biased and nothing else, and the word's
// revocation sentinel must keep its slot, epoch and misc bits.
func TestBiasedWordRoundTrip(t *testing.T) {
	t.Parallel()
	owners := []uint16{1, 2, 3, 127, 128, 255, 256, 32766, 32767}
	miscs := []uint32{0, 1, 0x55, 0xAA, 0xFF}
	for bits := 1; bits <= core.MaxBiasEpochBits; bits++ {
		for _, owner := range owners {
			for epoch := uint32(0); epoch < 1<<bits; epoch++ {
				for slot := 0; slot < threading.BiasSlots; slot++ {
					for _, misc := range miscs {
						w := core.BiasedWord(owner, slot, epoch, bits, misc)
						if !core.IsBiased(w) {
							t.Fatalf("bits=%d owner=%d slot=%d epoch=%d misc=%#x: IsBiased = false", bits, owner, slot, epoch, misc)
						}
						if core.IsBiasRevoking(w) {
							t.Fatalf("owner=%d: live reservation classified as revocation sentinel", owner)
						}
						if core.IsInflated(w) {
							t.Fatalf("owner=%d: biased word classified as inflated", owner)
						}
						if got := core.BiasOwner(w); got != owner {
							t.Fatalf("BiasOwner = %d, want %d", got, owner)
						}
						if got := core.BiasSlotIndex(w); got != slot {
							t.Fatalf("BiasSlotIndex(bits=%d) = %d, want %d", bits, got, slot)
						}
						if got := core.BiasEpoch(w, bits); got != epoch {
							t.Fatalf("BiasEpoch(bits=%d) = %d, want %d", bits, got, epoch)
						}
						if got := w & core.MiscMask; got != misc {
							t.Fatalf("misc = %#x, want %#x", got, misc)
						}
						r := core.BiasRevokingWord(w)
						if !core.IsBiasRevoking(r) || core.BiasOwner(r) != 0 {
							t.Fatalf("sentinel %#08x of %#08x not a revoking word with owner 0", r, w)
						}
						if r != w&^core.TIDMask {
							t.Fatalf("sentinel %#08x of %#08x changed more than the owner index", r, w)
						}
					}
				}
			}
		}
	}
}

// TestBiasRevokingSentinel pins the sentinel encoding: owner index 0,
// still shaped as a biased word, misc preserved — and no word carrying a
// real owner may classify as the sentinel.
func TestBiasRevokingSentinel(t *testing.T) {
	t.Parallel()
	for _, misc := range []uint32{0, 0x7F, 0xFF} {
		w := core.BiasRevokingWord(misc)
		if !core.IsBiasRevoking(w) || !core.IsBiased(w) {
			t.Fatalf("misc=%#x: sentinel %#08x not classified as revoking biased word", misc, w)
		}
		if core.BiasOwner(w) != 0 {
			t.Fatalf("sentinel carries owner %d, want 0", core.BiasOwner(w))
		}
		if w&core.MiscMask != misc {
			t.Fatalf("sentinel misc = %#x, want %#x", w&core.MiscMask, misc)
		}
	}
}

// TestShapeStatesDisjoint proves the four lock-word shapes — unlocked,
// thin (within the biased implementation's 7-bit count discipline),
// biased, inflated — are mutually exclusive under the classification
// predicates, for a sweep of words of each shape: biased and revoking
// words at every epoch width, with the widest epoch and every slot.
func TestShapeStatesDisjoint(t *testing.T) {
	t.Parallel()
	type shape struct {
		name string
		word uint32
	}
	var words []shape
	for _, misc := range []uint32{0, 0xFF} {
		words = append(words, shape{"unlocked", misc})
		for _, owner := range []uint16{1, 32767} {
			for _, count := range []uint32{0, 1, core.BiasMaxThinCount - 1} {
				words = append(words, shape{"thin", core.ThinWord(owner, count, misc)})
			}
			for bits := 1; bits <= core.MaxBiasEpochBits; bits++ {
				for slot := 0; slot < threading.BiasSlots; slot++ {
					b := core.BiasedWord(owner, slot, 1<<bits-1, bits, misc)
					words = append(words, shape{"biased", b}, shape{"revoking", core.BiasRevokingWord(b)})
				}
			}
		}
		words = append(words, shape{"revoking", core.BiasRevokingWord(misc)})
		words = append(words, shape{"inflated", core.InflatedWord(7, misc)})
	}
	for _, s := range words {
		classes := 0
		if core.IsInflated(s.word) {
			classes++
		}
		if core.IsBiased(s.word) {
			classes++
		}
		thin := !core.IsInflated(s.word) && !core.IsBiased(s.word) && s.word&core.TIDMask != 0
		if thin {
			classes++
		}
		unlocked := !core.IsInflated(s.word) && !core.IsBiased(s.word) && s.word&core.TIDMask == 0
		if unlocked {
			classes++
		}
		if classes != 1 {
			t.Errorf("%s word %#08x matches %d shape classes, want exactly 1", s.name, s.word, classes)
		}
		switch s.name {
		case "unlocked":
			if !unlocked {
				t.Errorf("unlocked word %#08x misclassified", s.word)
			}
		case "thin":
			if !thin {
				t.Errorf("thin word %#08x misclassified", s.word)
			}
		case "biased", "revoking":
			if !core.IsBiased(s.word) {
				t.Errorf("%s word %#08x not IsBiased", s.name, s.word)
			}
		case "inflated":
			if !core.IsInflated(s.word) {
				t.Errorf("inflated word %#08x not IsInflated", s.word)
			}
		}
	}
}

// TestCorruptedWordsDetected is the encoding's seeded-mutation kill
// suite: take a valid biased word and corrupt it the three ways a
// protocol bug would — flip the bias bit, stamp a stale epoch, swap in
// the wrong owner index — and prove each corruption is observable
// through the decode functions (no corruption aliases back to the
// original word's meaning).
func TestCorruptedWordsDetected(t *testing.T) {
	t.Parallel()
	const bits = DefaultEpochBits
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		owner := uint16(rng.Intn(32767) + 1)
		slot := rng.Intn(threading.BiasSlots)
		epoch := rng.Uint32() & (1<<bits - 1)
		misc := rng.Uint32() & core.MiscMask
		w := core.BiasedWord(owner, slot, epoch, bits, misc)

		// Flip the bias bit: the word must stop classifying as biased —
		// otherwise a revoker could walk a word that was never a
		// reservation.
		if flipped := w ^ core.BiasBit; core.IsBiased(flipped) {
			t.Fatalf("word %#08x with bias bit cleared still IsBiased", flipped)
		}

		// Stale epoch: every other epoch value must decode as different,
		// or bulk rebias could never distinguish stale reservations.
		for d := uint32(1); d < 1<<bits; d++ {
			stale := core.BiasedWord(owner, slot, epoch+d, bits, misc)
			if core.BiasEpoch(stale, bits) == core.BiasEpoch(w, bits) {
				t.Fatalf("epoch %d and %d alias under %d bits", epoch, epoch+d, bits)
			}
			if !core.IsBiased(stale) || core.BiasOwner(stale) != owner || core.BiasSlotIndex(stale) != slot {
				t.Fatalf("restamping the epoch disturbed owner/slot/shape: %#08x", stale)
			}
		}

		// Wrong slot: every other slot must decode as different, or the
		// owner and the revoker would read another reservation's depth.
		for d := 1; d < threading.BiasSlots; d++ {
			other := core.BiasedWord(owner, (slot+d)%threading.BiasSlots, epoch, bits, misc)
			if core.BiasSlotIndex(other) == slot || other == w {
				t.Fatalf("slot %d and %d alias in the biased word", slot, (slot+d)%threading.BiasSlots)
			}
			if core.BiasEpoch(other, bits) != epoch || core.BiasOwner(other) != owner {
				t.Fatalf("restamping the slot disturbed owner/epoch: %#08x", other)
			}
		}

		// Wrong owner index: the reservation must identify its one owner
		// exactly, or revocation would walk the wrong thread's depth.
		wrong := uint16(rng.Intn(32767) + 1)
		if wrong == owner {
			wrong = owner%32767 + 1
		}
		forged := core.BiasedWord(wrong, slot, epoch, bits, misc)
		if core.BiasOwner(forged) == owner {
			t.Fatalf("owner %d and %d alias in the biased word", owner, wrong)
		}
		if forged == w {
			t.Fatalf("distinct owners encoded to identical words %#08x", w)
		}
	}
}

// FuzzBiasedWordRoundTrip lets the fuzzer hunt for encode/decode
// disagreements across the full input space, including slot and epoch
// values wider than their fields (which must truncate consistently on
// both sides).
func FuzzBiasedWordRoundTrip(f *testing.F) {
	f.Add(uint16(1), 0, uint32(0), 2, uint32(0))
	f.Add(uint16(32767), 7, uint32(15), core.MaxBiasEpochBits, uint32(0xFF))
	f.Add(uint16(128), 9, uint32(9999), 1, uint32(0x5A))
	f.Fuzz(func(t *testing.T, owner uint16, slot int, epoch uint32, bits int, misc uint32) {
		if owner == 0 || owner > 32767 || bits < 1 || bits > core.MaxBiasEpochBits {
			t.Skip()
		}
		w := core.BiasedWord(owner, slot, epoch, bits, misc)
		if !core.IsBiased(w) || core.IsBiasRevoking(w) || core.IsInflated(w) {
			t.Fatalf("biased(%d,%d,%d,%d,%#x) = %#08x misclassified", owner, slot, epoch, bits, misc, w)
		}
		if got := core.BiasOwner(w); got != owner {
			t.Fatalf("BiasOwner = %d, want %d", got, owner)
		}
		if got, want := core.BiasSlotIndex(w), slot&(threading.BiasSlots-1); got != want {
			t.Fatalf("BiasSlotIndex = %d, want %d", got, want)
		}
		if got, want := core.BiasEpoch(w, bits), epoch&(1<<bits-1); got != want {
			t.Fatalf("BiasEpoch = %d, want %d", got, want)
		}
		if got, want := w&core.MiscMask, misc&core.MiscMask; got != want {
			t.Fatalf("misc = %#x, want %#x", got, want)
		}
		r := core.BiasRevokingWord(w)
		if !core.IsBiasRevoking(r) || core.BiasSlotIndex(r) != core.BiasSlotIndex(w) ||
			core.BiasEpoch(r, bits) != core.BiasEpoch(w, bits) || r&core.MiscMask != w&core.MiscMask {
			t.Fatalf("sentinel %#08x of %#08x lost its slot, epoch or misc bits", r, w)
		}
	})
}
