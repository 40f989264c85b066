package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// IndexBits is the width of a monitor index in an inflated lock word: the
// 24-bit lock field minus the monitor shape bit.
const IndexBits = 23

// MaxMonitors is the size of the monitor index space.
const MaxMonitors = 1 << IndexBits

// chunkBits sizes the table's fixed chunks: 64 monitors, 2 KiB. The Go
// runtime prepends an 8-byte type header to an object over 512 bytes
// that holds pointers, so a chunk takes the allocator's 2,304-byte size
// class, 36 bytes per monitor.
const chunkBits = 6

const chunkSize = 1 << chunkBits

// chunk holds monitors by value, so inflation allocates one chunk per
// chunkSize monitors and nothing per monitor.
type chunk [chunkSize]Monitor

// maxChunks is how many chunks the index space spans.
const maxChunks = MaxMonitors / chunkSize

// Table maps monitor indices to monitors, mirroring "the table which maps
// inflated monitor indices to fat locks" (§2.3). It holds the monitors
// themselves, in fixed chunks: a monitor costs its 32 bytes and no table
// slot. Get is wait-free (three atomic loads plus two indexing
// operations — the paper's "shifting the monitor index to the right and
// indexing into the vector"), because it sits on the locking fast path
// for every inflated object.
//
// As in the paper, the table only grows: an inflated object keeps its
// monitor for life (§2.3.4), so an index, once bound, is never reused
// and a Get never races a rebinding. Fresh indices come from an atomic
// counter. The chunk directory's slots are atomic, so a new chunk is
// stored in place; the directory itself is copied only when it doubles.
// The mutex guards both, O(span/chunkSize) times ever.
type Table struct {
	mu   sync.Mutex // guards chunk and directory growth only
	dir  atomic.Pointer[[]atomic.Pointer[chunk]]
	next atomic.Uint32 // next never-used index; index 0 is valid
}

// NewTable returns an empty monitor table.
func NewTable() *Table {
	t := &Table{}
	empty := make([]atomic.Pointer[chunk], 0)
	t.dir.Store(&empty)
	return t
}

// Allocate returns a free monitor and the fresh index it is bound to.
// It panics if the 23-bit index space is exhausted, which corresponds to
// a VM that has inflated eight million locks; the failed call takes no
// index, so Len stays at MaxMonitors.
func (tb *Table) Allocate() (*Monitor, uint32) {
	idx := tb.next.Load()
	for {
		if idx >= MaxMonitors {
			panic("monitor: 23-bit monitor index space exhausted")
		}
		if tb.next.CompareAndSwap(idx, idx+1) {
			break
		}
		idx = tb.next.Load()
	}
	ci := int(idx >> chunkBits)
	var c *chunk
	if dir := *tb.dir.Load(); ci < len(dir) {
		c = dir[ci].Load()
	}
	if c == nil {
		c = tb.grow(ci)
	}
	return &c[idx&(chunkSize-1)], idx
}

// grow returns chunk ci, making it, and doubling the directory to hold
// it, if they do not exist yet. Only the inflating thread knows its
// index until it publishes the inflated header, whose atomic store
// orders these stores before any Get.
func (tb *Table) grow(ci int) *chunk {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	dir := *tb.dir.Load()
	if ci >= len(dir) {
		grown := make([]atomic.Pointer[chunk], min(2*(ci+1), maxChunks))
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		tb.dir.Store(&grown)
		dir = grown
	}
	c := dir[ci].Load()
	if c == nil {
		c = new(chunk)
		dir[ci].Store(c)
	}
	return c
}

// Get returns the monitor with the given index. It panics on an index
// that was never allocated: encountering one means an object header held
// a corrupt inflated lock word.
func (tb *Table) Get(idx uint32) *Monitor {
	if idx >= tb.next.Load() {
		panic(fmt.Sprintf("monitor: index %d unallocated", idx))
	}
	dir := *tb.dir.Load()
	return &dir[idx>>chunkBits].Load()[idx&(chunkSize-1)]
}

// Len reports how many monitors have been allocated, one per inflation.
func (tb *Table) Len() int { return int(tb.next.Load()) }
