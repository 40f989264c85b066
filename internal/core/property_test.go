package core

import (
	"testing"
	"testing/quick"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// TestPropertyBalancedNesting checks that for any nesting depth sequence,
// balanced lock/unlock leaves every object unlocked with its misc bits
// intact, inflating exactly when some depth exceeds 256.
func TestPropertyBalancedNesting(t *testing.T) {
	t.Parallel()
	prop := func(depths []uint16) bool {
		l := New(Options{})
		heap := object.NewHeap()
		reg := threading.NewRegistry()
		th, err := reg.Attach("p")
		if err != nil {
			return false
		}
		for _, d := range depths {
			depth := int(d%300) + 1
			o := heap.New("X")
			misc := o.Misc()
			for i := 0; i < depth; i++ {
				l.Lock(th, o)
			}
			wantInflated := depth > 256
			if IsInflated(o.Header()) != wantInflated {
				return false
			}
			for i := 0; i < depth; i++ {
				if err := l.Unlock(th, o); err != nil {
					return false
				}
			}
			if wantInflated {
				// Stays inflated but unowned.
				if !IsInflated(o.Header()) || l.Monitor(o).OwnerIndex() != 0 {
					return false
				}
			} else if o.Header() != misc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyInterleavedObjects drives a random interleaving of lock and
// unlock operations over a small set of objects by one thread, tracking a
// model of expected depths; the implementation must agree with the model
// at every step.
func TestPropertyInterleavedObjects(t *testing.T) {
	t.Parallel()
	prop := func(ops []uint8) bool {
		const numObjects = 4
		l := New(Options{})
		heap := object.NewHeap()
		reg := threading.NewRegistry()
		th, err := reg.Attach("p")
		if err != nil {
			return false
		}
		objs := make([]*object.Object, numObjects)
		depth := make([]int, numObjects)
		for i := range objs {
			objs[i] = heap.New("X")
		}
		for _, op := range ops {
			i := int(op) % numObjects
			if op&0x80 == 0 || depth[i] == 0 {
				// Lock (also when an unlock would be unbalanced).
				if depth[i] >= 256 {
					continue // stay within thin range for this model
				}
				l.Lock(th, objs[i])
				depth[i]++
			} else {
				if err := l.Unlock(th, objs[i]); err != nil {
					return false
				}
				depth[i]--
			}
			// Model check.
			w := objs[i].Header()
			if depth[i] == 0 {
				if !IsUnlocked(w) {
					return false
				}
			} else {
				if ThinOwner(w) != th.Index() || int(ThinCount(w)) != depth[i]-1 {
					return false
				}
			}
		}
		// Unwind.
		for i, d := range depth {
			for j := 0; j < d; j++ {
				if err := l.Unlock(th, objs[i]); err != nil {
					return false
				}
			}
			if !IsUnlocked(objs[i].Header()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDiscipline verifies invariant 1 of DESIGN.md on a
// single-threaded trace: the lock word of an object owned by thread T is
// only ever changed between observations made by T itself — i.e. a
// non-owner performing failed unlocks never perturbs it.
func TestPropertyDiscipline(t *testing.T) {
	t.Parallel()
	prop := func(attempts uint8) bool {
		l := New(Options{})
		heap := object.NewHeap()
		reg := threading.NewRegistry()
		a, err := reg.Attach("a")
		if err != nil {
			return false
		}
		b, err := reg.Attach("b")
		if err != nil {
			return false
		}
		o := heap.New("X")
		l.Lock(a, o)
		before := o.Header()
		for i := 0; i < int(attempts%16); i++ {
			if err := l.Unlock(b, o); err != ErrIllegalMonitorState {
				return false
			}
			if _, err := l.Wait(b, o, 0); err != ErrIllegalMonitorState {
				return false
			}
			if err := l.Notify(b, o); err != ErrIllegalMonitorState {
				return false
			}
		}
		return o.Header() == before && l.Unlock(a, o) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
