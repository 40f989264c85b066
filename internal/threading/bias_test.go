package threading

import (
	"sync"
	"testing"
)

// TestBiasSlotsFullCountsClaims: BiasSlotsFull must track exactly the
// claimed slots — re-claiming an id already held reuses its slot
// without counting it twice, a full table refuses new ids, and Release
// frees one slot once however often it is called.
func TestBiasSlotsFullCountsClaims(t *testing.T) {
	t.Parallel()
	th, err := NewRegistry().Attach("owner")
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]*BiasSlot, BiasSlots)
	for i := range slots {
		if th.BiasSlotsFull() {
			t.Fatalf("full after %d claims", i)
		}
		if slots[i] = th.ClaimBiasSlot(uint64(i + 1)); slots[i] == nil {
			t.Fatalf("claim %d refused with free slots", i+1)
		}
	}
	if !th.BiasSlotsFull() {
		t.Fatalf("not full after %d claims", BiasSlots)
	}
	if s := th.ClaimBiasSlot(1); s != slots[0] {
		t.Fatal("re-claiming a held id did not return its slot")
	}
	if s := th.ClaimBiasSlot(BiasSlots + 1); s != nil {
		t.Fatal("a full table claimed a slot for a new id")
	}
	th.ReleaseBiasSlot(slots[3])
	th.ReleaseBiasSlot(slots[3])
	if th.BiasSlotsFull() {
		t.Fatal("still full after a Release")
	}
	if th.BiasSlotFor(4) != nil {
		t.Fatal("released slot still found by id")
	}
	if s := th.ClaimBiasSlot(BiasSlots + 1); s == nil || !th.BiasSlotsFull() {
		t.Fatal("the released slot was not reused, or a double Release uncounted a claimed slot")
	}
}

// TestBiasSlotScanWhileOwnerCycles runs a revoker-style scanner over a
// thread's slots while the owner claims, fills and releases them, so
// the race detector (make race-locks) sees every access that crosses
// goroutines.
func TestBiasSlotScanWhileOwnerCycles(t *testing.T) {
	t.Parallel()
	th, err := NewRegistry().Attach("owner")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := uint64(1); id <= BiasSlots+1; id++ {
				if s := th.BiasSlotFor(id); s != nil {
					_, _ = s.Word(), s.Depth()
				}
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		id := uint64(r%(BiasSlots+1) + 1)
		s := th.ClaimBiasSlot(id)
		if s == nil {
			// Full: free the slot of the id claimed BiasSlots rounds ago.
			th.ReleaseBiasSlot(th.BiasSlotFor(uint64((r+1)%(BiasSlots+1) + 1)))
			s = th.ClaimBiasSlot(id)
		}
		s.SetWord(uint32(r))
		s.SetDepth(uint64(r % 3))
	}
	close(stop)
	wg.Wait()
	if !th.BiasSlotsFull() {
		t.Fatal("the cycling owner should end with a full table")
	}
}
