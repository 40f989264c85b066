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
//
// An Object is 16 bytes and holds no pointer: the header word, a flags
// word, and one word that packs the allocation id (high 40 bits) with
// the index of the object's class name (low 24 bits). Class names are
// interned in one process-wide, append-only table, the way a JVM's
// header points at its class rather than carrying the name, so every
// object is a pointer-free allocation the collector never scans.
//
// Both fields have limits. A Heap hands out ids 1 to MaxID; the New
// after that panics, and Allocated stays at MaxID. The process interns
// at most MaxClasses distinct names, "" included; a New that would
// intern one more panics before it takes an id. Names already interned
// keep working at either limit.
package object

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MiscMask selects the low 8 header bits that do not belong to the lock
// field.
const MiscMask uint32 = 0xFF

// The split of an Object's id word: the allocation id in the high
// idBits bits, the class index in the low classBits bits.
const (
	idBits    = 40
	classBits = 64 - idBits

	// MaxID is the largest id a Heap hands out: about 1.1e12
	// allocations, some 12 hours of nonstop allocation at 40 ns each.
	MaxID = 1<<idBits - 1
	// MaxClasses is how many distinct class names the process can
	// intern, "" (index 0) included.
	MaxClasses = 1 << classBits

	classMask = MaxClasses - 1
)

// Object is a heap object with a lockable header. The zero value is a
// valid unlocked object with zero misc bits, id 0 and class "";
// objects allocated from a Heap get varied misc bits and unique ids.
type Object struct {
	header uint32 // accessed only via sync/atomic
	// flags is a second header word for bits that must be writable by
	// non-owners, such as the flat-lock-contention bit of the queued
	// inflation extension. Keeping it outside the lock word preserves
	// the paper's discipline: owner stores to the lock word can never
	// clobber a concurrently-set flag.
	flags uint32
	// idClass is the allocation id << classBits | the class index. It
	// is written once, before the object is published.
	idClass uint64
}

// ID returns the object's allocation id (0 for a zero-value Object).
func (o *Object) ID() uint64 { return o.idClass >> classBits }

// Class returns the object's class tag ("" for a zero-value Object).
func (o *Object) Class() string { return (*classes.names.Load())[o.idClass&classMask] }

// String implements fmt.Stringer.
func (o *Object) String() string {
	c := o.Class()
	if c == "" {
		c = "object"
	}
	return fmt.Sprintf("%s#%d", c, o.ID())
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
// real VM would store hash or GC bits there. It panics past either limit
// in the package comment.
func (h *Heap) New(class string) *Object {
	// The class first, so that a full class table panics before the
	// heap spends an id. A name seen before is one cache hit.
	e := cacheSlot(class).Load()
	c := e.index
	if unsafe.StringData(e.name) != unsafe.StringData(class) || len(e.name) != len(class) {
		c = intern(class)
	}
	id := h.allocated.Add(1)
	if id > MaxID {
		panic("object: heap exhausted its 2^40-1 object ids")
	}
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
	return &Object{header: misc, idClass: id<<classBits | c}
}

// Allocated reports how many objects this heap has created. Past MaxID
// the counter keeps counting the New calls that panicked, which created
// nothing.
func (h *Heap) Allocated() uint64 { return min(h.allocated.Load(), MaxID) }

// classTable is the process-wide table of interned class names. Index i
// names the class whose objects carry i in their low classBits bits.
type classTable struct {
	// names is the published table. It only grows: an append writes
	// past every published length before it publishes the longer
	// slice, so a reader indexes an element no writer touches again.
	names atomic.Pointer[[]string]

	mu    sync.Mutex
	index map[string]uint64 // guarded by mu
	limit int               // guarded by mu; MaxClasses but in tests
}

// classes is held by value, so that Class reaches the names in one
// atomic load.
var classes classTable

// add returns class's index, interning a copy of it if it is new.
func (t *classTable) add(class string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[class]; ok {
		return i
	}
	names := *t.names.Load()
	if len(names) >= t.limit {
		panic(fmt.Sprintf("object: class table full: %d names interned, cannot add %q", len(names), class))
	}
	i := uint64(len(names))
	// A copy, so a name cut from a larger string does not keep it alive.
	name := strings.Clone(class)
	names = append(names, name)
	t.names.Store(&names)
	t.index[name] = i
	return i
}

// The class cache resolves a class name New has seen by the address of
// its bytes, so that a hit costs one atomic load and two compares (the
// address and the length) and no hashing of the name. It is direct
// mapped: a miss interns the name and overwrites the slot. Each entry
// keeps its name, so the bytes it is keyed by cannot be freed and their
// address reused by another string while the entry stands.
const cacheBits = 10

type classEntry struct {
	name  string
	index uint64
}

var classCache [1 << cacheBits]atomic.Pointer[classEntry]

func init() {
	// "" is index 0, the class of the zero Object.
	names := []string{""}
	classes.names.Store(&names)
	classes.index = map[string]uint64{"": 0}
	classes.limit = MaxClasses
	// Every slot starts at "", so a lookup needs no nil check.
	empty := &classEntry{}
	for i := range classCache {
		classCache[i].Store(empty)
	}
}

// cacheSlot is class's slot in the class cache, picked by a Fibonacci
// hash of its data address.
func cacheSlot(class string) *atomic.Pointer[classEntry] {
	h := uint64(uintptr(unsafe.Pointer(unsafe.StringData(class)))) * 0x9E3779B97F4A7C15
	return &classCache[h>>(64-cacheBits)]
}

// intern is New's slow path for a class the cache does not hold: it
// looks class up in the table, adding it if it is new, and caches it by
// its address.
func intern(class string) uint64 {
	i := classes.add(class)
	cacheSlot(class).Store(&classEntry{name: class, index: i})
	return i
}
