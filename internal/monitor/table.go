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

// chunkBits sizes the table's fixed chunks. Lookups are lock-free; only
// growth takes the table mutex.
const chunkBits = 10

const chunkSize = 1 << chunkBits

// Table maps monitor indices to monitors, mirroring "the table which maps
// inflated monitor indices to fat locks" (§2.3). Get is wait-free (an
// atomic load plus two indexing operations — the paper's "shifting the
// monitor index to the right and indexing into the vector"), because it
// sits on the locking fast path for every inflated object.
//
// As in the paper, the table only grows: an inflated object keeps its
// monitor for life (§2.3.4), so an index, once bound, is never reused
// and a Get never races a rebinding. Fresh indices come from an atomic
// counter; the mutex guards only chunk growth, which happens
// O(span/chunkSize) times ever.
type Table struct {
	mu     sync.Mutex // guards chunk growth only
	chunks atomic.Pointer[[]*[chunkSize]*Monitor]
	next   atomic.Uint32 // next never-used index; index 0 is valid
}

// NewTable returns an empty monitor table.
func NewTable() *Table {
	t := &Table{}
	empty := make([]*[chunkSize]*Monitor, 0)
	t.chunks.Store(&empty)
	return t
}

// Allocate returns a monitor bound to a fresh index. It panics if the
// 23-bit index space is exhausted, which corresponds to a VM that has
// inflated eight million locks.
func (tb *Table) Allocate() *Monitor {
	idx := tb.next.Add(1) - 1
	if idx >= MaxMonitors {
		panic("monitor: 23-bit monitor index space exhausted")
	}
	m := &Monitor{index: idx}
	tb.bind(idx, m)
	return m
}

// bind publishes m at idx, growing the chunk directory if idx is beyond
// it. Only the inflating thread knows idx until it publishes the
// inflated header, whose atomic store orders this one before any Get.
func (tb *Table) bind(idx uint32, m *Monitor) {
	ci := int(idx >> chunkBits)
	chunks := *tb.chunks.Load()
	if ci >= len(chunks) {
		tb.mu.Lock()
		chunks = *tb.chunks.Load()
		if ci >= len(chunks) {
			grown := make([]*[chunkSize]*Monitor, ci+1)
			copy(grown, chunks)
			for i := len(chunks); i <= ci; i++ {
				grown[i] = new([chunkSize]*Monitor)
			}
			tb.chunks.Store(&grown)
			chunks = grown
		}
		tb.mu.Unlock()
	}
	chunks[ci][idx&(chunkSize-1)] = m
}

// Get returns the monitor with the given index. It panics on an index
// that was never allocated: encountering one means an object header held
// a corrupt inflated lock word.
func (tb *Table) Get(idx uint32) *Monitor {
	chunks := *tb.chunks.Load()
	ci := int(idx >> chunkBits)
	if ci >= len(chunks) {
		panic(fmt.Sprintf("monitor: index %d beyond table", idx))
	}
	m := chunks[ci][idx&(chunkSize-1)]
	if m == nil {
		panic(fmt.Sprintf("monitor: index %d unallocated", idx))
	}
	return m
}

// Len reports how many monitors have been allocated, one per inflation.
func (tb *Table) Len() int { return int(tb.next.Load()) }
