package monitor

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"thinlock/internal/threading"
)

// requireCount fails unless m's count is want.
func requireCount(t *testing.T, m *Monitor, want uint32, when string) {
	t.Helper()
	if c := m.Count(); c != want {
		t.Fatalf("%s: Count = %d, want %d", when, c, want)
	}
}

// TestNestingPastTheCountField nests one monitor past the count field's
// 65,535 levels, through Enter and TryEnter, so the levels past it
// spill. It then waits there twice: once timing out on a free monitor,
// which it takes back in its validate, and once while another thread
// enters, nests past the field itself, notifies and exits, whose exit
// hands the monitor back. The waiter's spill leaves with it, so the
// other thread finds none. Count must be exact at every step, the
// spill must be empty once the last level is released, and one Exit
// more must fail.
func TestNestingPastTheCountField(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	a, b := ths[0], ths[1]
	m := New()
	const depth = 70000
	for i := uint32(1); i <= depth; i++ {
		if i%2 == 0 {
			if !m.TryEnter(a) {
				t.Fatalf("TryEnter at level %d failed for the owner", i)
			}
		} else {
			m.Enter(a, nil)
		}
		if c := m.Count(); c != i {
			t.Fatalf("after %d enters: Count = %d", i, c)
		}
	}
	if n := spill.Get(m); n != depth-maxCount {
		t.Fatalf("spill = %d, want %d", n, depth-maxCount)
	}

	if notified, err := m.Wait(a, time.Millisecond); notified || err != nil {
		t.Fatalf("timed wait on a free monitor = (%v, %v), want a timeout", notified, err)
	}
	requireCount(t, m, depth, "after a timed-out wait")

	done := make(chan struct{})
	go func() {
		defer close(done)
		waitFor(t, func() bool { return m.WaitSetLen() == 1 })
		levels := uint32(maxCount + 2)
		if n := spill.Get(m); n != 0 {
			t.Errorf("spill = %d while its owner waits", n)
			levels = 1
		}
		for i := uint32(1); i <= levels; i++ {
			m.Enter(b, nil)
			if c := m.Count(); c != i {
				t.Errorf("the other thread's enter %d: Count = %d", i, c)
				levels = i
			}
		}
		if err := m.Notify(b); err != nil {
			t.Error(err)
		}
		for ; levels > 0; levels-- {
			if err := m.Exit(b); err != nil {
				t.Errorf("the other thread's exit at level %d: %v", levels, err)
			}
		}
	}()
	if notified, err := m.Wait(a, time.Minute); !notified || err != nil {
		t.Fatalf("timed wait = (%v, %v), want notified", notified, err)
	}
	<-done
	if m.OwnerIndex() != a.Index() {
		t.Fatalf("owner %d after the handoff, want %d", m.OwnerIndex(), a.Index())
	}
	requireCount(t, m, depth, "after the handoff")

	for i := uint32(depth); i >= 1; i-- {
		if err := m.Exit(a); err != nil {
			t.Fatalf("exit at level %d: %v", i, err)
		}
		if c := m.Count(); c != i-1 {
			t.Fatalf("after the exit at level %d: Count = %d", i, c)
		}
	}
	if err := m.Exit(a); err != ErrIllegalMonitorState {
		t.Fatalf("exit past the last level = %v, want ErrIllegalMonitorState", err)
	}
	if n := spill.Get(m); n != 0 {
		t.Fatalf("spill = %d after the last level", n)
	}
	if !m.Quiescent() {
		t.Fatalf("monitor not quiescent: %v", m)
	}
}

// TestSeedOwnerSpills seeds a monitor past the count field, as an
// inflation at that depth would, and unwinds it.
func TestSeedOwnerSpills(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	const depth = maxCount + 3
	m.SeedOwner(ths[0], depth)
	requireCount(t, m, depth, "after SeedOwner")
	for i := uint32(depth); i >= 1; i-- {
		if err := m.Exit(ths[0]); err != nil {
			t.Fatalf("exit at level %d: %v", i, err)
		}
	}
	if !m.Quiescent() || spill.Get(m) != 0 {
		t.Fatalf("monitor %v with spill %d after unwinding", m, spill.Get(m))
	}
}

// TestNestingRacesTheQueuedBit: every thread holds the monitor for a
// while, nesting and unnesting it all the while, and arrives for its
// next hold at a random point of another's, so it spends its spin
// budget and parks mid-way: the owner's atomic adds on the count field
// race the parkers' CAS of the queued bit into the same word. An owner
// that erased the bit would strand a parker: race builds catch it at
// the next bucket-locked step (checkLocked), and any build when a
// thread never gets through.
func TestNestingRacesTheQueuedBit(t *testing.T) {
	t.Parallel()
	const (
		threads = 4
		depth   = 64
		hold    = 100 * time.Microsecond
	)
	rounds := 500
	if testing.Short() {
		rounds = 100
	}
	ths := newThreads(t, threads)
	m := New()
	var inside int // guarded by m
	var wg sync.WaitGroup
	for _, th := range ths {
		wg.Add(1)
		go func(th *threading.Thread) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(th.Index()), 1))
			for r := 0; r < rounds; r++ {
				for until := time.Now().Add(time.Duration(rng.Int64N(int64(hold)))); time.Now().Before(until); {
				}
				m.Enter(th, nil)
				inside++
				if inside != 1 {
					t.Errorf("%d threads inside", inside)
				}
				for start := time.Now(); time.Since(start) < hold; {
					for d := uint32(2); d <= depth; d++ {
						if d%2 == 0 {
							m.Enter(th, nil)
						} else if !m.TryEnter(th) {
							t.Errorf("TryEnter at level %d failed for the owner", d)
						}
					}
					if c := m.Count(); c != depth {
						t.Errorf("nested: Count = %d, want %d", c, depth)
					}
					for d := uint32(depth); d > 1; d-- {
						if err := m.Exit(th); err != nil {
							t.Error(err)
						}
					}
					if c := m.Count(); c != 1 {
						t.Errorf("unnested: Count = %d, want 1", c)
					}
				}
				inside--
				if err := m.Exit(th); err != nil {
					t.Error(err)
				}
			}
		}(th)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("threads stranded: %v", m)
	}
	if !m.Quiescent() {
		t.Fatalf("monitor not quiescent: %v", m)
	}
}
