package monitor

import (
	"fmt"
	"sync/atomic"
)

// IndexBits is the width of a monitor index in an inflated lock word: the
// 24-bit lock field minus the monitor shape bit.
const IndexBits = 23

// MaxMonitors is the size of the monitor index space.
const MaxMonitors = 1 << IndexBits

// chunkBits sizes the table's fixed chunks: 64 monitors, 256 bytes. A
// Monitor holds no pointer, so a chunk needs no type header and fills
// the allocator's 256-byte size class exactly: 4 bytes per monitor, and
// a full 23-bit table holds 32 MiB of them.
const chunkBits = 6

const chunkSize = 1 << chunkBits

// chunk holds monitors by value, so inflation allocates one chunk per
// chunkSize monitors and nothing per monitor.
type chunk [chunkSize]Monitor

// maxChunks is how many chunks the index space spans.
const maxChunks = MaxMonitors / chunkSize

// Table maps monitor indices to monitors, mirroring "the table which maps
// inflated monitor indices to fat locks" (§2.3). It holds the monitors
// themselves, in fixed chunks: a monitor costs its 4 bytes and no table
// slot. Get is wait-free (three atomic loads plus two indexing
// operations — the paper's "shifting the monitor index to the right and
// indexing into the vector"), because it sits on the locking fast path
// for every inflated object.
//
// As in the paper, the table only grows: an inflated object keeps its
// monitor for life (§2.3.4), so an index, once bound, is never reused
// and a Get never races a rebinding. Fresh indices come from an atomic
// counter, and growth takes no lock. A new chunk is installed by a CAS
// of its directory slot from nil. A bigger directory is a copy
// installed by a CAS of the directory pointer, and a thread that
// copies the directory first seals its empty slots (sealed), so no
// chunk can land in the old directory after the copy; a thread that
// finds a sealed slot makes a copy too, and the first installed wins.
// Every copy holds the same chunks. That happens O(log span) times.
type Table struct {
	dir  atomic.Pointer[[]atomic.Pointer[chunk]]
	next atomic.Uint32 // next never-used index; index 0 is valid
}

// sealed fills the empty slots of a directory that a bigger copy is
// replacing. It is never handed out.
var sealed = new(chunk)

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
// index, so Len stays at MaxMonitors. Only the inflating thread knows
// the index until it publishes the inflated header, whose atomic store
// orders the chunk's installation before any Get.
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
	for {
		d := tb.dir.Load()
		if ci >= len(*d) {
			tb.grow(d, ci)
			continue
		}
		switch c := (*d)[ci].Load(); c {
		case nil:
			(*d)[ci].CompareAndSwap(nil, new(chunk))
		case sealed:
			tb.grow(d, ci)
		default:
			return &c[idx&(chunkSize-1)], idx
		}
	}
}

// grow replaces directory d with a copy that holds chunk ci and is at
// least twice d's size, unless another copy has replaced d already.
func (tb *Table) grow(d *[]atomic.Pointer[chunk], ci int) {
	old := *d
	grown := make([]atomic.Pointer[chunk], min(max(2*(ci+1), 2*len(old)), maxChunks))
	for i := range old {
		// A slot is empty, a chunk or sealed, and only an empty one
		// changes, so after a failed seal one load reads it for good.
		if old[i].CompareAndSwap(nil, sealed) {
			continue
		}
		if c := old[i].Load(); c != sealed {
			grown[i].Store(c)
		}
	}
	tb.dir.CompareAndSwap(d, &grown)
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
