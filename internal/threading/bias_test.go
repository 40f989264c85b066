package threading

import (
	"sync"
	"testing"
)

// TestBiasSlotsFullCountsClaims: BiasSlotsFull must track exactly the
// claimed slots — re-claiming an id already held reuses its slot
// without counting it twice, a full table refuses new ids, id 0 (the
// free-slot mark) is never claimed, and Release frees one slot once
// however often it is called.
func TestBiasSlotsFullCountsClaims(t *testing.T) {
	t.Parallel()
	th, err := NewRegistry().Attach("owner")
	if err != nil {
		t.Fatal(err)
	}
	if i := th.ClaimBiasSlot(0); i != -1 {
		t.Fatalf("id 0 claimed slot %d", i)
	}
	slots := make([]int, BiasSlots)
	for i := range slots {
		if th.BiasSlotsFull() {
			t.Fatalf("full after %d claims", i)
		}
		if slots[i] = th.ClaimBiasSlot(uint64(i + 1)); slots[i] < 0 {
			t.Fatalf("claim %d refused with free slots", i+1)
		}
		if got := th.BiasSlot(slots[i]).ObjectID(); got != uint64(i+1) {
			t.Fatalf("claimed slot %d holds id %d, want %d", slots[i], got, i+1)
		}
	}
	if !th.BiasSlotsFull() {
		t.Fatalf("not full after %d claims", BiasSlots)
	}
	if i := th.ClaimBiasSlot(1); i != slots[0] {
		t.Fatal("re-claiming a held id did not return its slot")
	}
	if i := th.ClaimBiasSlot(BiasSlots + 1); i != -1 {
		t.Fatal("a full table claimed a slot for a new id")
	}
	th.ReleaseBiasSlot(th.BiasSlot(slots[3]))
	th.ReleaseBiasSlot(th.BiasSlot(slots[3]))
	if th.BiasSlotsFull() {
		t.Fatal("still full after a Release")
	}
	if th.BiasSlot(slots[3]).ObjectID() != 0 {
		t.Fatal("released slot still holds its id")
	}
	if i := th.ClaimBiasSlot(BiasSlots + 1); i != slots[3] || !th.BiasSlotsFull() {
		t.Fatal("the released slot was not reused, or a double Release uncounted a claimed slot")
	}
}

// TestBiasSlotScanWhileOwnerCycles runs a revoker-style reader over a
// thread's slots, each read by index as a biased word names it, while
// the owner claims, fills and releases them, so the race detector
// (make race-locks) sees every access that crosses goroutines.
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
			for i := 0; i < BiasSlots; i++ {
				s := th.BiasSlot(i)
				if s.ObjectID() != 0 {
					_, _ = s.Word(), s.Depth()
				}
			}
		}
	}()
	slotOf := map[uint64]int{}
	for r := 0; r < rounds; r++ {
		id := uint64(r%(BiasSlots+1) + 1)
		i := th.ClaimBiasSlot(id)
		if i < 0 {
			// Full: free the slot of the id claimed BiasSlots rounds ago.
			th.ReleaseBiasSlot(th.BiasSlot(slotOf[uint64((r+1)%(BiasSlots+1)+1)]))
			i = th.ClaimBiasSlot(id)
		}
		slotOf[id] = i
		s := th.BiasSlot(i)
		s.SetWord(uint32(r))
		s.SetDepth(uint64(r % 3))
	}
	close(stop)
	wg.Wait()
	if !th.BiasSlotsFull() {
		t.Fatal("the cycling owner should end with a full table")
	}
}
