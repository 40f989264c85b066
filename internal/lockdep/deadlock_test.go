package lockdep_test

// End-to-end deadlock diagnosis through the real lock implementation.
// The dining test runs five philosophers on compact monitors, whose
// contenders spin briefly and then park on the lot instead of burning
// CPU, all grabbing their left fork and then reaching for the right
// one. The wait-for detector must name the full cycle, and the watchdog
// must dump it. The deadlocked goroutines stay parked for the life of
// the test binary — that is what a deadlock is — so these tests leak
// them by design.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockdep"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

const numPhilosophers = 5

// Not parallel: owns the global lockdep registration.
func TestDiningPhilosophersDeadlockIsDiagnosed(t *testing.T) {
	d := lockdep.Enable(lockdep.New())
	defer lockdep.Disable()

	l := core.New(core.Options{Compact: true})
	heap := object.NewHeap()
	reg := threading.NewRegistry()
	forks := make([]*object.Object, numPhilosophers)
	for i := range forks {
		forks[i] = heap.New("Fork")
	}

	// Barrier: every philosopher holds its left fork before any reaches
	// for the right one, so the deadlock forms deterministically.
	firstHeld := make(chan struct{}, numPhilosophers)
	proceed := make(chan struct{})
	for i := 0; i < numPhilosophers; i++ {
		i := i
		if _, err := reg.Go(fmt.Sprintf("phil-%d", i), func(th *threading.Thread) {
			l.Lock(th, forks[i])
			firstHeld <- struct{}{}
			<-proceed
			l.Lock(th, forks[(i+1)%numPhilosophers]) // never returns
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < numPhilosophers; i++ {
		<-firstHeld
	}
	close(proceed)

	// A philosopher spins before it parks, and its blocking episode
	// starts again when it parks. Wait until all five have been parked
	// past the watchdog's threshold, so that the cycle shows every park
	// and the watchdog's first dump names every philosopher.
	deadline := time.Now().Add(10 * time.Second)
	const threshold = 50 * time.Millisecond
	for {
		parked := 0
		for _, n := range d.WaitingThreads() {
			if n.Kind == "queued-park" && n.WaitNs >= threshold.Nanoseconds() {
				parked++
			}
		}
		if parked == numPhilosophers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("philosophers never all parked past %v; waiters: %+v", threshold, d.WaitingThreads())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The detector must find the full 5-thread cycle.
	var cycle lockdep.WaitCycle
	for {
		var found bool
		for _, c := range d.DetectWaitCycles() {
			if len(c.Threads) == numPhilosophers {
				cycle, found = c, true
				break
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadlock never detected; waiters: %+v", d.WaitingThreads())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := cycle.String()
	if !strings.Contains(s, "wait-for cycle (5 threads deadlocked)") {
		t.Errorf("cycle header wrong: %q", s)
	}
	for i := 0; i < numPhilosophers; i++ {
		if !strings.Contains(s, fmt.Sprintf("phil-%d#", i)) {
			t.Errorf("cycle does not name phil-%d:\n%s", i, s)
		}
	}
	// Every philosopher holds one fork and blocks on another; the report
	// must show both the held and the blocked-on sites.
	if strings.Count(s, "holds Fork#") != numPhilosophers {
		t.Errorf("cycle does not list every held fork:\n%s", s)
	}
	if !strings.Contains(s, "queued-park") {
		t.Errorf("cycle does not show the park kind:\n%s", s)
	}

	// The watchdog must dump the same stall, once per episode.
	dumps := make(chan lockdep.StallDump, 1)
	w := d.StartWatchdog(lockdep.WatchdogOptions{
		Threshold: threshold,
		Interval:  10 * time.Millisecond,
		OnStall: func(sd lockdep.StallDump) {
			select {
			case dumps <- sd:
			default:
			}
		},
	})
	defer w.Stop()
	var dump lockdep.StallDump
	select {
	case dump = <-dumps:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never dumped the deadlock")
	}
	if len(dump.Stalled) != numPhilosophers {
		t.Errorf("stalled threads = %d, want %d", len(dump.Stalled), numPhilosophers)
	}
	if len(dump.Cycles) == 0 {
		t.Errorf("watchdog dump does not include the wait-for cycle")
	}
	var text strings.Builder
	dump.WriteText(&text)
	for _, want := range []string{"stall dump", "wait-for cycle", "phil-0#", "recent events"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("dump text missing %q", want)
		}
	}
}

// Three threads each hold one object that a timed wait inflated
// beforehand, then each reaches for the next one's: the deadlock forms
// among fat monitors, where each blocked thread spins on the monitor
// and then parks in its entry queue. Every report along the way must
// name the object, so the detector finds the 3-thread cycle. The three
// threads stay parked for the life of the test binary.
// Not parallel: owns the global lockdep registration.
func TestInflatedObjectsDeadlockIsDiagnosed(t *testing.T) {
	const n = 3
	d := lockdep.Enable(lockdep.New())
	defer lockdep.Disable()

	l := core.New(core.Options{})
	heap := object.NewHeap()
	reg := threading.NewRegistry()
	setup, err := reg.Attach("setup")
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = heap.New("Cell")
		l.Lock(setup, objs[i])
		if _, err := l.Wait(setup, objs[i], time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(setup, objs[i]); err != nil {
			t.Fatal(err)
		}
		if !l.Inflated(objs[i]) {
			t.Fatalf("object %d not inflated by its timed wait", i)
		}
	}

	firstHeld := make(chan struct{}, n)
	proceed := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		if _, err := reg.Go(fmt.Sprintf("cell-%d", i), func(th *threading.Thread) {
			l.Lock(th, objs[i])
			firstHeld <- struct{}{}
			<-proceed
			l.Lock(th, objs[(i+1)%n]) // never returns
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-firstHeld
	}
	close(proceed)

	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, c := range d.DetectWaitCycles() {
			if len(c.Threads) != n {
				continue
			}
			s := c.String()
			if strings.Count(s, "holds Cell#") != n || !strings.Contains(s, "monitor-enter") {
				t.Errorf("cycle does not show the held cells and the monitor wait:\n%s", s)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadlock never detected; waiters: %+v", d.WaitingThreads())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCompactDeadlockIsDiagnosed: the same three-thread cycle under
// compact monitors, where no object inflates: each blocked thread spins
// on the thin word and then parks on the lot, keyed by the object. The
// Block events that open and close the spin must name the object, so
// the detector finds the cycle and reports each thread's lot park. The
// three threads stay parked for the life of the test binary.
// Not parallel: owns the global lockdep registration.
func TestCompactDeadlockIsDiagnosed(t *testing.T) {
	const n = 3
	d := lockdep.Enable(lockdep.New())
	defer lockdep.Disable()

	l := core.New(core.Options{Compact: true})
	heap := object.NewHeap()
	reg := threading.NewRegistry()
	objs := make([]*object.Object, n)
	for i := range objs {
		objs[i] = heap.New("Cell")
	}
	firstHeld := make(chan struct{}, n)
	proceed := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		if _, err := reg.Go(fmt.Sprintf("cell-%d", i), func(th *threading.Thread) {
			l.Lock(th, objs[i])
			firstHeld <- struct{}{}
			<-proceed
			l.Lock(th, objs[(i+1)%n]) // never returns
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-firstHeld
	}
	close(proceed)

	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, c := range d.DetectWaitCycles() {
			if len(c.Threads) != n {
				continue
			}
			s := c.String()
			if strings.Count(s, "holds Cell#") == n && strings.Count(s, "queued-park") == n {
				return
			}
			// A thread may still be spinning; its park follows.
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadlock never diagnosed with every thread parked; waiters: %+v", d.WaitingThreads())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Ordered forks — every philosopher takes the lower-numbered fork
// first — contend on the same objects but cannot deadlock, and lockdep
// must stay silent: no inversions and, once the run drains, no cycles.
// Not parallel: owns the global lockdep registration.
func TestOrderedForksProduceNoReports(t *testing.T) {
	d := lockdep.Enable(lockdep.New())
	defer lockdep.Disable()

	l := core.New(core.Options{Compact: true})
	heap := object.NewHeap()
	reg := threading.NewRegistry()
	forks := make([]*object.Object, numPhilosophers)
	for i := range forks {
		forks[i] = heap.New("Fork")
	}

	var dones []<-chan struct{}
	for i := 0; i < numPhilosophers; i++ {
		i := i
		done, err := reg.Go(fmt.Sprintf("phil-%d", i), func(th *threading.Thread) {
			lo, hi := i, (i+1)%numPhilosophers
			if lo > hi {
				lo, hi = hi, lo
			}
			for round := 0; round < 200; round++ {
				l.Lock(th, forks[lo])
				l.Lock(th, forks[hi])
				l.Unlock(th, forks[hi])
				l.Unlock(th, forks[lo])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	for _, done := range dones {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("ordered philosophers hung (they must not)")
		}
	}
	st := d.Stats()
	if st.Inversions != 0 {
		t.Fatalf("ordered acquisition reported inversions: %+v\n%v", st, d.Inversions())
	}
	if cycles := d.DetectWaitCycles(); len(cycles) != 0 {
		t.Fatalf("wait cycles after all threads exited: %v", cycles)
	}
	if st.Edges == 0 {
		t.Errorf("no order edges recorded — hooks not wired?")
	}
}
