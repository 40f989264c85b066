package object

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestZeroValueIsUnlocked(t *testing.T) {
	t.Parallel()
	var o Object
	if o.Header() != 0 {
		t.Errorf("zero Object header = %#x, want 0", o.Header())
	}
	if o.Misc() != 0 {
		t.Errorf("zero Object misc = %#x, want 0", o.Misc())
	}
	if o.ID() != 0 || o.Class() != "" {
		t.Errorf("zero Object id, class = %d, %q; want 0, \"\"", o.ID(), o.Class())
	}
}

// TestObjectIs16BytesAndHoldsNoPointer pins the object layout: a header
// word, a flags word and the id/class word, with no pointer among them,
// so every object is a 16-byte allocation the collector never scans. A
// new field has no room: the next size class is 24 bytes.
func TestObjectIs16BytesAndHoldsNoPointer(t *testing.T) {
	t.Parallel()
	if n := unsafe.Sizeof(Object{}); n != 16 {
		t.Errorf("Object is %d bytes, want 16", n)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk("Object", reflect.TypeOf(Object{}))
}

// namesRun numbers the runs of the tests that intern names of their
// own, so that every run (-count=N included) interns fresh ones.
var namesRun atomic.Uint64

func freshPrefix(t *testing.T) string {
	return fmt.Sprintf("%s-%d-", t.Name(), namesRun.Add(1))
}

// mustPanic fails unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestConcurrentInterningGivesEachNameOneIndex: goroutines allocate
// objects of overlapping class names, each name a fresh copy with bytes
// of its own, so that most calls miss the address-keyed cache and
// intern concurrently. Every name must get one index, distinct names
// distinct indices, and Class must return each name unchanged.
func TestConcurrentInterningGivesEachNameOneIndex(t *testing.T) {
	t.Parallel()
	const goroutines, names, rounds = 8, 48, 6
	prefix := freshPrefix(t)
	h := NewHeap()
	type alloc struct {
		name string
		o    *Object
	}
	allocs := make([][]alloc, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for n := 0; n < names; n++ {
					// Each goroutine starts at its own name, so every
					// name is first seen by several goroutines at once.
					name := fmt.Sprintf("%s%d", prefix, (n+g*names/goroutines)%names)
					allocs[g] = append(allocs[g], alloc{name, h.New(name)})
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	index := map[string]uint64{}
	owner := map[uint64]string{}
	for _, batch := range allocs {
		for _, a := range batch {
			if got := a.o.Class(); got != a.name {
				t.Fatalf("Class() = %q, want %q", got, a.name)
			}
			i := a.o.idClass & classMask
			if prev, ok := index[a.name]; ok && prev != i {
				t.Fatalf("%q interned at indices %d and %d", a.name, prev, i)
			}
			if prev, ok := owner[i]; ok && prev != a.name {
				t.Fatalf("index %d names both %q and %q", i, prev, a.name)
			}
			index[a.name], owner[i] = i, a.name
		}
	}
	if len(index) != names {
		t.Errorf("%d names interned, want %d", len(index), names)
	}
	if want := uint64(goroutines * names * rounds); h.Allocated() != want {
		t.Errorf("Allocated() = %d, want %d", h.Allocated(), want)
	}
}

// TestClassNamesSharingBytes: a name and its prefix share a data
// address, and a name's copies share none; the cache must tell the
// first apart by length and map the second to one index.
func TestClassNamesSharingBytes(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	long := freshPrefix(t) + "VectorX"
	short := long[:len(long)-1]
	for i := 0; i < 3; i++ {
		if got := h.New(long).Class(); got != long {
			t.Fatalf("Class() = %q, want %q", got, long)
		}
		if got := h.New(short).Class(); got != short {
			t.Fatalf("Class() = %q, want %q", got, short)
		}
	}
	a, b := h.New(strings.Clone(short)), h.New(strings.Clone(short))
	if a.idClass&classMask != b.idClass&classMask {
		t.Errorf("two copies of %q got indices %d and %d", short, a.idClass&classMask, b.idClass&classMask)
	}
	if got := h.New("").Class(); got != "" {
		t.Errorf(`New("").Class() = %q`, got)
	}
}

// TestCacheSlotCollisionsStayCorrect alternates two names that share a
// cache slot, so every allocation overwrites the other's entry.
func TestCacheSlotCollisionsStayCorrect(t *testing.T) {
	t.Parallel()
	prefix := freshPrefix(t)
	bySlot := map[*atomic.Pointer[classEntry]]string{}
	var a, b string
	for i := 0; a == ""; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if prev, ok := bySlot[cacheSlot(name)]; ok {
			a, b = prev, name
		}
		bySlot[cacheSlot(name)] = name
	}
	h := NewHeap()
	for i := 0; i < 8; i++ {
		for _, name := range []string{a, b} {
			if got := h.New(name).Class(); got != name {
				t.Fatalf("Class() = %q, want %q", got, name)
			}
		}
	}
}

// TestNewAllocatesOnlyTheObject: a class the cache holds costs New
// no allocation but the object's.
func TestNewAllocatesOnlyTheObject(t *testing.T) {
	h := NewHeap()
	h.New("Cached")
	if allocs := testing.AllocsPerRun(100, func() { h.New("Cached") }); allocs != 1 {
		t.Errorf("New allocates %.1f objects, want 1", allocs)
	}
}

// TestHeapIDExhaustionPanicsAndKeepsAllocated reaches the end of the
// 40-bit id space by setting the counter: the last id is handed out
// whole, with its class intact, and every New after it panics while
// Allocated stays at MaxID.
func TestHeapIDExhaustionPanicsAndKeepsAllocated(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	h.allocated.Store(MaxID - 1)
	o := h.New("Last")
	if o.ID() != MaxID || o.Class() != "Last" {
		t.Fatalf("last object id, class = %d, %q; want %d, \"Last\"", o.ID(), o.Class(), uint64(MaxID))
	}
	for i := 0; i < 2; i++ {
		mustPanic(t, "2^40-1 object ids", func() { h.New("Last") })
		if h.Allocated() != MaxID {
			t.Errorf("Allocated() = %d after a refused New, want %d", h.Allocated(), uint64(MaxID))
		}
	}
}

// TestClassTableExhaustionPanicsAndTakesNoID lowers the class table's
// limit to one more name, rather than interning 2^24 of them. The last
// name fits; the next new name panics without spending an id, and
// names already interned, cached or not, keep working. Not parallel:
// it changes the process-wide table's limit.
func TestClassTableExhaustionPanicsAndTakesNoID(t *testing.T) {
	prefix := freshPrefix(t)
	h := NewHeap()
	h.New(prefix + "kept")
	classes.mu.Lock()
	saved := classes.limit
	classes.limit = len(*classes.names.Load()) + 1
	classes.mu.Unlock()
	defer func() {
		classes.mu.Lock()
		classes.limit = saved
		classes.mu.Unlock()
	}()
	if o := h.New(prefix + "last"); o.Class() != prefix+"last" {
		t.Fatalf("Class() = %q", o.Class())
	}
	mustPanic(t, "class table full", func() { h.New(prefix + "over") })
	if h.Allocated() != 2 {
		t.Errorf("Allocated() = %d after a refused class, want 2", h.Allocated())
	}
	for _, name := range []string{prefix + "last", prefix + "kept", ""} {
		if got := h.New(strings.Clone(name)).Class(); got != name {
			t.Errorf("Class() = %q at a full table, want %q", got, name)
		}
	}
}

func TestHeapNewSeedsMiscBits(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	sawDistinct := false
	var prev uint32
	for i := 0; i < 50; i++ {
		o := h.New("X")
		m := o.Misc()
		if m == 0 {
			t.Fatalf("object %d has zero misc bits", i)
		}
		if m > MiscMask {
			t.Fatalf("misc %#x exceeds 8 bits", m)
		}
		// The lock field (high 24 bits) must start clear: unlocked.
		if o.Header()&^MiscMask != 0 {
			t.Fatalf("fresh object lock field = %#x, want 0", o.Header()&^MiscMask)
		}
		if i > 0 && m != prev {
			sawDistinct = true
		}
		prev = m
	}
	if !sawDistinct {
		t.Error("all 50 objects share identical misc bits; want variety")
	}
}

func TestHeapIDsUniqueAndCounted(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		o := h.New("X")
		if seen[o.ID()] {
			t.Fatalf("duplicate id %d", o.ID())
		}
		seen[o.ID()] = true
	}
	if h.Allocated() != 100 {
		t.Errorf("Allocated() = %d, want 100", h.Allocated())
	}
}

func TestHeapConcurrentAllocation(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	const goroutines, perG = 8, 500
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ids[g] = append(ids[g], h.New("X").ID())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate id %d across goroutines", id)
			}
			seen[id] = true
		}
	}
	if h.Allocated() != goroutines*perG {
		t.Errorf("Allocated() = %d, want %d", h.Allocated(), goroutines*perG)
	}
}

func TestCASHeader(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	o := h.New("X")
	misc := o.Misc()
	if !o.CASHeader(misc, misc|0x10000) {
		t.Fatal("CAS from current header failed")
	}
	if o.Header() != misc|0x10000 {
		t.Fatalf("header = %#x after CAS", o.Header())
	}
	if o.CASHeader(misc, misc|0x20000) {
		t.Fatal("CAS from stale header succeeded")
	}
}

func TestSetHeaderPreservesNothing(t *testing.T) {
	t.Parallel()
	var o Object
	o.SetHeader(0xDEADBEEF)
	if o.Header() != 0xDEADBEEF {
		t.Fatalf("header = %#x, want 0xDEADBEEF", o.Header())
	}
}

func TestString(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	o := h.New("Vector")
	if got, want := o.String(), "Vector#1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	var z Object
	if got, want := z.String(), "object#0"; got != want {
		t.Errorf("zero String() = %q, want %q", got, want)
	}
}

// Property: misc bits survive any sequence of lock-field writes that
// respect the split (as all lock implementations must).
func TestMiscBitsStableUnderLockFieldWrites(t *testing.T) {
	t.Parallel()
	prop := func(writes []uint32) bool {
		h := NewHeap()
		o := h.New("X")
		misc := o.Misc()
		for _, w := range writes {
			o.SetHeader((w &^ MiscMask) | misc)
			if o.Misc() != misc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClassAndHeaderAddr(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	o := h.New("Vector")
	if o.Class() != "Vector" {
		t.Errorf("Class = %q", o.Class())
	}
	if o.HeaderAddr() == nil {
		t.Fatal("HeaderAddr nil")
	}
	*o.HeaderAddr() = 0x12345678 // direct access is how arch.CAS reaches it
	if o.Header() != 0x12345678 {
		t.Errorf("header via addr = %#x", o.Header())
	}
}

func TestFlagBits(t *testing.T) {
	t.Parallel()
	h := NewHeap()
	o := h.New("X")
	if o.Flags() != 0 {
		t.Fatalf("fresh flags = %#x", o.Flags())
	}
	o.SetFlagBits(0b101)
	if o.Flags() != 0b101 {
		t.Fatalf("flags = %#x after set", o.Flags())
	}
	o.SetFlagBits(0b101) // idempotent fast path
	if o.Flags() != 0b101 {
		t.Fatalf("flags = %#x after redundant set", o.Flags())
	}
	o.ClearFlagBits(0b001)
	if o.Flags() != 0b100 {
		t.Fatalf("flags = %#x after clear", o.Flags())
	}
	o.ClearFlagBits(0b001) // idempotent fast path
	if o.Flags() != 0b100 {
		t.Fatalf("flags = %#x after redundant clear", o.Flags())
	}
}

func TestFlagBitsConcurrent(t *testing.T) {
	t.Parallel()
	// Concurrent set/clear of disjoint bits must not lose updates.
	h := NewHeap()
	o := h.New("X")
	var wg sync.WaitGroup
	for bit := uint32(0); bit < 8; bit++ {
		bit := bit
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.SetFlagBits(1 << bit)
				o.ClearFlagBits(1 << bit)
			}
			o.SetFlagBits(1 << bit)
		}()
	}
	wg.Wait()
	if o.Flags() != 0xFF {
		t.Fatalf("flags = %#x, want 0xFF (lost updates)", o.Flags())
	}
}

// sink makes each benchmarked object escape, so the compiler cannot
// drop its allocation.
var sink *Object

// BenchmarkHeapNew is the unit cost of one allocation of a cached
// class:
//
//	go test -run XXX -bench HeapNew ./internal/object
func BenchmarkHeapNew(b *testing.B) {
	h := NewHeap()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = h.New("X")
	}
}

func BenchmarkHeaderLoad(b *testing.B) {
	h := NewHeap()
	o := h.New("X")
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += o.Header()
	}
	_ = sink
}
