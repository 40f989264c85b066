package monitor

import (
	"strings"
	"sync"
	"testing"
)

func TestTableAllocateAssignsSequentialIndices(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	for i := 0; i < 3000; i++ { // crosses many chunk boundaries
		if _, idx := tb.Allocate(); idx != uint32(i) {
			t.Fatalf("index = %d, want %d", idx, i)
		}
	}
	if tb.Len() != 3000 {
		t.Errorf("Len = %d, want 3000", tb.Len())
	}
}

func TestTableGetReturnsSameMonitor(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	ms := make([]*Monitor, 2500)
	for i := range ms {
		ms[i], _ = tb.Allocate()
	}
	for i, want := range ms {
		if got := tb.Get(uint32(i)); got != want {
			t.Fatalf("Get(%d) returned a different monitor", i)
		}
	}
}

// requireGetPanics fails unless tb.Get(idx) panics.
func requireGetPanics(t *testing.T, tb *Table, idx uint32) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("Get(%d) of an unallocated index did not panic", idx)
		}
	}()
	tb.Get(idx)
}

// TestTableGetPanicsOnBadIndex: an index past the last allocation
// panics, including one whose chunk already exists.
func TestTableGetPanicsOnBadIndex(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	tb.Allocate()
	for _, idx := range []uint32{1, chunkSize - 1, chunkSize, 99999} {
		requireGetPanics(t, tb, idx)
	}
}

// TestTableExhaustionPanicsAndKeepsLen: the last of the 2^23 indices is
// allocated and usable; the next Allocate panics without taking an
// index, so Len still counts only the monitors that were made.
func TestTableExhaustionPanicsAndKeepsLen(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	tb.next.Store(MaxMonitors - 1)
	m, idx := tb.Allocate()
	if idx != MaxMonitors-1 {
		t.Fatalf("index = %d, want %d", idx, MaxMonitors-1)
	}
	if tb.Get(idx) != m {
		t.Fatalf("Get(%d) returned a different monitor", idx)
	}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "monitor: 23-bit monitor index space exhausted") {
					t.Errorf("Allocate past the index space: recovered %q", msg)
				}
			}()
			tb.Allocate()
		}()
		if tb.Len() != MaxMonitors {
			t.Fatalf("Len = %d after %d failed allocations, want %d", tb.Len(), i+1, MaxMonitors)
		}
	}
}

// TestTableGrowSealsReplacedDirectory: once a directory has been copied
// into a bigger one, no chunk can land in its empty slots, so an
// allocator still holding it cannot install a chunk that Get, reading
// the new directory, would miss. It finds the slot sealed, grows
// from there and installs the chunk in the current directory.
func TestTableGrowSealsReplacedDirectory(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	first, _ := tb.Allocate() // chunk 0, in a directory of 2 slots
	old := tb.dir.Load()
	tb.grow(old, 2) // as an allocator of chunk 2 does
	if (*old)[1].CompareAndSwap(nil, new(chunk)) {
		t.Fatal("a chunk landed in an empty slot of the replaced directory")
	}
	if tb.Get(0) != first {
		t.Fatal("the bigger directory lost chunk 0")
	}
	tb.next.Store(chunkSize) // the next index opens chunk 1
	m, idx := tb.Allocate()
	if tb.Get(idx) != m || (*old)[1].Load() != sealed {
		t.Fatal("chunk 1 is not where Get finds it, or the old slot was unsealed")
	}
}

func TestTableConcurrentAllocateAndGet(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	const goroutines, perG = 8, 400
	indices := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m, idx := tb.Allocate()
				indices[g] = append(indices[g], idx)
				if tb.Get(idx) != m {
					t.Errorf("Get(%d) mismatch", idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint32]bool)
	for _, batch := range indices {
		for _, idx := range batch {
			if seen[idx] {
				t.Fatalf("duplicate monitor index %d", idx)
			}
			seen[idx] = true
		}
	}
	if tb.Len() != goroutines*perG {
		t.Errorf("Len = %d, want %d", tb.Len(), goroutines*perG)
	}
}

func BenchmarkTableGet(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 1024; i++ {
		tb.Allocate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tb.Get(uint32(i & 1023))
	}
}
