// Package object provides the Java-style object model the lock
// implementations operate on.
//
// In the paper's JVM each object has a three-word header; 24 bits of one
// header word were freed up for the lock field, and the 8 bits sharing
// that word are constant while the object is locked (§2.3, Figure 1a).
// We reproduce that layout exactly: every Object carries a 32-bit header
// word whose high 24 bits are the lock field and whose low 8 bits are
// miscellaneous header data (we store a pseudo-hash there, and it is
// deliberately nonzero for most objects so the lock-word bit tricks are
// exercised against realistic values).
package object

import (
	"fmt"
	"sync/atomic"
)

// MiscMask selects the low 8 header bits that do not belong to the lock
// field.
const MiscMask uint32 = 0xFF

// Object is a heap object with a lockable header. The zero value is a
// valid unlocked object with zero misc bits; objects allocated from a
// Heap get varied misc bits and unique ids.
type Object struct {
	header uint32 // accessed only via sync/atomic
	// flags is a second header word for bits that must be writable by
	// non-owners, such as the flat-lock-contention bit of the queued
	// inflation extension. Keeping it outside the lock word preserves
	// the paper's discipline: owner stores to the lock word can never
	// clobber a concurrently-set flag.
	flags uint32

	id    uint64
	class string
}

// ID returns the object's allocation id (0 for a zero-value Object).
func (o *Object) ID() uint64 { return o.id }

// Class returns the object's class tag ("" for a zero-value Object).
func (o *Object) Class() string { return o.class }

// String implements fmt.Stringer.
func (o *Object) String() string {
	c := o.class
	if c == "" {
		c = "object"
	}
	return fmt.Sprintf("%s#%d", c, o.id)
}

// Header returns the current header word. The load is atomic but carries
// plain-load cost, matching the paper's use of ordinary load instructions
// on the lock word.
func (o *Object) Header() uint32 { return atomic.LoadUint32(&o.header) }

// SetHeader stores the header word. Per the paper's locking discipline
// it must only be called by the thread that owns the object's lock, and
// the paper needed no more than a plain store for it. Go's
// atomic.StoreUint32 is sequentially consistent, though, and amd64
// implements it with XCHG, a locked instruction: it costs more than the
// plain MOV it stands for.
func (o *Object) SetHeader(w uint32) { atomic.StoreUint32(&o.header, w) }

// CASHeader atomically replaces the header word if it equals old,
// reporting success. This is the expensive operation on the lock fast
// path.
func (o *Object) CASHeader(old, new uint32) bool {
	return atomic.CompareAndSwapUint32(&o.header, old, new)
}

// HeaderAddr exposes the header word's address for lock implementations
// that route the compare-and-swap through the simulated hardware layer.
func (o *Object) HeaderAddr() *uint32 { return &o.header }

// Misc returns the constant low 8 bits of the header.
func (o *Object) Misc() uint32 { return o.Header() & MiscMask }

// Flags returns the second header word.
func (o *Object) Flags() uint32 { return atomic.LoadUint32(&o.flags) }

// SetFlagBits atomically ORs bits into the flags word.
func (o *Object) SetFlagBits(bits uint32) {
	for {
		old := atomic.LoadUint32(&o.flags)
		if old&bits == bits || atomic.CompareAndSwapUint32(&o.flags, old, old|bits) {
			return
		}
	}
}

// ClearFlagBits atomically clears bits in the flags word.
func (o *Object) ClearFlagBits(bits uint32) {
	for {
		old := atomic.LoadUint32(&o.flags)
		if old&bits == 0 || atomic.CompareAndSwapUint32(&o.flags, old, old&^bits) {
			return
		}
	}
}

// Heap allocates objects and tracks the allocation statistics reported in
// the paper's Table 1.
type Heap struct {
	allocated atomic.Uint64
}

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// New allocates an object of the given class. The low 8 header bits are
// seeded with a nonzero pseudo-hash derived from the allocation id, as a
// real VM would store hash or GC bits there.
func (h *Heap) New(class string) *Object {
	id := h.allocated.Add(1)
	// Mix the id so consecutive allocations get differing misc bits,
	// and force the result nonzero: constant-zero misc bits would hide
	// a whole family of lock-word encoding bugs.
	misc := uint32(id*2654435761) & MiscMask
	if misc == 0 {
		misc = 0xA5
	}
	// No other goroutine can see the object yet, so the header is set
	// in the literal rather than with SetHeader's locked store.
	//lockvet:ignore initializing an unpublished object cannot race
	return &Object{header: misc, id: id, class: class}
}

// Allocated reports how many objects this heap has created.
func (h *Heap) Allocated() uint64 { return h.allocated.Load() }
