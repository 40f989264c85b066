package jcl

import (
	"math/bits"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// BitSet is java.util.BitSet. The paper's jax benchmark made nineteen
// million calls to BitSet.get: "The get method is not synchronized;
// however, it executes a synchronized block after checking for some error
// conditions" (§3.4). This implementation reproduces that exact shape:
// Get's bounds check runs unsynchronized, then the bit is read inside a
// synchronized block.
type BitSet struct {
	ctx  *Context
	obj  *object.Object
	bits []uint64
}

const bitsPerWord = 64

// NewBitSet allocates a bit set with at least nbits of capacity.
func (c *Context) NewBitSet(nbits int) *BitSet {
	words := (nbits + bitsPerWord - 1) / bitsPerWord
	if words == 0 {
		words = 1
	}
	return &BitSet{ctx: c, obj: c.heap.New("BitSet"), bits: make([]uint64, words)}
}

// Object returns the BitSet's lockable identity.
func (b *BitSet) Object() *object.Object { return b.obj }

// ensure grows the word array to cover bit index i. Caller must hold the
// lock.
func (b *BitSet) ensure(i int) {
	w := i/bitsPerWord + 1
	for len(b.bits) < w {
		b.bits = append(b.bits, 0)
	}
}

// Get reports bit i. Unsynchronized bounds check, then a synchronized
// block, as in JDK 1.1.
func (b *BitSet) Get(t *threading.Thread, i int) bool {
	if i < 0 {
		panic("jcl: negative bit index")
	}
	var set bool
	b.ctx.synchronized(t, b.obj, func() {
		w := i / bitsPerWord
		if w < len(b.bits) {
			set = b.bits[w]&(1<<uint(i%bitsPerWord)) != 0
		}
	})
	return set
}

// Set sets bit i. Synchronized.
func (b *BitSet) Set(t *threading.Thread, i int) {
	if i < 0 {
		panic("jcl: negative bit index")
	}
	b.ctx.synchronized(t, b.obj, func() {
		b.ensure(i)
		b.bits[i/bitsPerWord] |= 1 << uint(i%bitsPerWord)
	})
}

// Clear clears bit i. Synchronized.
func (b *BitSet) Clear(t *threading.Thread, i int) {
	if i < 0 {
		panic("jcl: negative bit index")
	}
	b.ctx.synchronized(t, b.obj, func() {
		w := i / bitsPerWord
		if w < len(b.bits) {
			b.bits[w] &^= 1 << uint(i%bitsPerWord)
		}
	})
}

// And intersects with other in place. Synchronized on the receiver.
func (b *BitSet) And(t *threading.Thread, other *BitSet) {
	b.ctx.synchronized(t, b.obj, func() {
		for i := range b.bits {
			if i < len(other.bits) {
				b.bits[i] &= other.bits[i]
			} else {
				b.bits[i] = 0
			}
		}
	})
}

// Or unions with other in place. Synchronized on the receiver.
func (b *BitSet) Or(t *threading.Thread, other *BitSet) {
	b.ctx.synchronized(t, b.obj, func() {
		for i, w := range other.bits {
			b.ensure(i * bitsPerWord)
			b.bits[i] |= w
		}
	})
}

// Xor symmetric-differences with other in place. Synchronized on the
// receiver.
func (b *BitSet) Xor(t *threading.Thread, other *BitSet) {
	b.ctx.synchronized(t, b.obj, func() {
		for i, w := range other.bits {
			b.ensure(i * bitsPerWord)
			b.bits[i] ^= w
		}
	})
}

// Size returns the capacity in bits. Synchronized.
func (b *BitSet) Size(t *threading.Thread) int {
	var n int
	b.ctx.synchronized(t, b.obj, func() {
		n = len(b.bits) * bitsPerWord
	})
	return n
}

// Cardinality counts the set bits, one population count per word, as
// Java's BitSet.cardinality sums Long.bitCount. Synchronized.
func (b *BitSet) Cardinality(t *threading.Thread) int {
	var n int
	b.ctx.synchronized(t, b.obj, func() {
		for _, w := range b.bits {
			n += bits.OnesCount64(w)
		}
	})
	return n
}
