package monitor

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"thinlock/internal/threading"
)

// TestPropertyEntryQueueIsFIFO: for any contender count, grant order
// equals queue order.
func TestPropertyEntryQueueIsFIFO(t *testing.T) {
	t.Parallel()
	prop := func(nRaw uint8) bool {
		n := int(nRaw%6) + 2
		reg := threading.NewRegistry()
		m := New()
		holder, err := reg.Attach("holder")
		if err != nil {
			return false
		}
		m.Enter(holder, nil)

		order := make([]int, 0, n)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			th, err := reg.Attach("c")
			if err != nil {
				return false
			}
			wg.Add(1)
			go func(i int, th *threading.Thread) {
				defer wg.Done()
				m.Enter(th, nil)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				if err := m.Exit(th); err != nil {
					t.Error(err)
				}
			}(i, th)
			// Serialize queue entry so the expected order is known.
			deadline := time.Now().Add(5 * time.Second)
			for m.EntryQueueLen() != i+1 {
				if time.Now().After(deadline) {
					t.Error("contender never queued")
					return false
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		if err := m.Exit(holder); err != nil {
			return false
		}
		wg.Wait()
		for i, got := range order {
			if got != i {
				return false
			}
		}
		return m.Quiescent()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBalancedRandomRecursion: for any depth sequence, recursive
// enter/exit always balances and leaves the monitor quiescent.
func TestPropertyBalancedRandomRecursion(t *testing.T) {
	t.Parallel()
	prop := func(depths []uint8) bool {
		reg := threading.NewRegistry()
		th, err := reg.Attach("t")
		if err != nil {
			return false
		}
		m := New()
		for _, d := range depths {
			depth := int(d%20) + 1
			for i := 0; i < depth; i++ {
				m.Enter(th, nil)
				if m.Count() != uint32(i+1) {
					return false
				}
			}
			for i := 0; i < depth; i++ {
				if err := m.Exit(th); err != nil {
					return false
				}
			}
			if !m.Quiescent() {
				return false
			}
		}
		return m.Exit(th) == ErrIllegalMonitorState
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
