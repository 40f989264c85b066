package conformance

import (
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// The wait-race cases below state monitor semantics every
// implementation must exhibit: a wait's release races a concurrent
// enter, a waiter survives other threads' lock/unlock cycles and still
// receives a later notify, waits and enters on two objects never leak
// into each other, and a recursively held lock is never released before
// its final unlock. They were written against an implementation that
// deflated monitors and recycled their indices, which these races broke
// in interesting ways, and keep the names they had then. Compact
// monitors (core.Options.Compact) meet the same races on the parking
// lot: a waiter filed while the lock is held, a relabel a final unlock
// must wake, nodes of two objects in one lot bucket.

// testWaitEnterRace: one thread repeatedly takes a timed wait on an
// object, so each wait releases the lock into, and re-acquires it
// against, two other threads hammering plain lock/unlock on it.
// Whatever state the header is caught in, mutual exclusion must hold
// and every unlock must succeed.
func testWaitEnterRace(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	o := f.heap.New("conf")

	const (
		churnRounds = 60
		enterRounds = 300
		enterers    = 2
	)
	counter := 0 // guarded by o; lost updates mean broken exclusion
	var inside atomic.Int32
	enter := func() {
		if inside.Add(1) != 1 {
			t.Error("two threads inside the critical section")
		}
	}
	exit := func() { inside.Add(-1) }

	churnDone, err := f.reg.Go("churner", func(w *threading.Thread) {
		for r := 0; r < churnRounds; r++ {
			f.l.Lock(w, o)
			// The wait releases the monitor (letting the enterers in)
			// and re-acquires on timeout; only then are we "inside".
			if _, err := f.l.Wait(w, o, 200*time.Microsecond); err != nil {
				t.Errorf("churner wait: %v", err)
			}
			enter()
			counter++
			exit()
			if err := f.l.Unlock(w, o); err != nil {
				t.Errorf("churner unlock: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	dones := []<-chan struct{}{churnDone}
	for i := 0; i < enterers; i++ {
		done, err := f.reg.Go("enterer", func(w *threading.Thread) {
			for r := 0; r < enterRounds; r++ {
				f.l.Lock(w, o)
				enter()
				counter++
				exit()
				if err := f.l.Unlock(w, o); err != nil {
					t.Errorf("enterer unlock: %v", err)
				}
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
		case <-time.After(testutil.DefaultWaitTimeout):
			t.Fatal("wait-enter race participant never finished")
		}
	}
	if want := churnRounds + enterers*enterRounds; counter != want {
		t.Fatalf("counter = %d, want %d (lost updates across waits)", counter, want)
	}
}

// testWaiterSurvivesReleases: a thread waits untimed while another locks and
// fully releases the object many times. No release may wake or drop the
// waiter, which must still be there for the final Notify.
func testWaiterSurvivesReleases(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	main := f.thread(t, "main")
	o := f.heap.New("conf")

	waiting := make(chan struct{})
	notified := make(chan bool, 1)
	done, err := f.reg.Go("waiter", func(w *threading.Thread) {
		f.l.Lock(w, o)
		close(waiting)
		ok, err := f.l.Wait(w, o, 0)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("waiter unlock: %v", err)
		}
		notified <- ok
	})
	if err != nil {
		t.Fatal(err)
	}
	<-waiting
	// Acquiring here guarantees the waiter is inside Wait; none of the
	// following final unlocks may disturb it.
	for i := 0; i < 20; i++ {
		f.l.Lock(main, o)
		if err := f.l.Unlock(main, o); err != nil {
			t.Fatalf("churn unlock %d: %v", i, err)
		}
	}
	f.l.Lock(main, o)
	if err := f.l.Notify(main, o); err != nil {
		t.Fatalf("notify: %v", err)
	}
	if err := f.l.Unlock(main, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	select {
	case <-done:
	case <-time.After(testutil.DefaultWaitTimeout):
		t.Fatal("waiter never woke: a release discarded it")
	}
	if !<-notified {
		t.Error("waiter reported notified = false after Notify")
	}
}

// testTwoObjectWaits: one thread takes timed waits on two objects
// in turn while dedicated threads hammer each object, so any state one
// object's blocking leaves behind (a cached or recycled monitor, a lot
// node or wake meant for the other key) has every chance to reach the
// *other* object. Each object's counter is guarded only by that object;
// any cross-object leak loses updates or trips the per-object
// exclusivity tripwire.
func testTwoObjectWaits(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.heap.New("conf"), f.heap.New("conf")

	const (
		churnRounds = 40
		enterRounds = 200
	)
	counters := [2]int{}
	var inside [2]atomic.Int32
	objs := [2]*object.Object{a, b}

	// The churner takes a timed wait on a and fully releases it, then
	// immediately does the same to b.
	churnDone, err := f.reg.Go("churner", func(w *threading.Thread) {
		for r := 0; r < churnRounds; r++ {
			for i, co := range objs {
				f.l.Lock(w, co)
				if _, err := f.l.Wait(w, co, 100*time.Microsecond); err != nil {
					t.Errorf("churner wait obj%d: %v", i, err)
				}
				if err := f.l.Unlock(w, co); err != nil {
					t.Errorf("churner unlock obj%d: %v", i, err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	dones := []<-chan struct{}{churnDone}
	for i := range objs {
		i := i
		done, err := f.reg.Go("enterer", func(w *threading.Thread) {
			for r := 0; r < enterRounds; r++ {
				f.l.Lock(w, objs[i])
				if inside[i].Add(1) != 1 {
					t.Errorf("two threads inside object %d's critical section", i)
				}
				counters[i]++
				inside[i].Add(-1)
				if err := f.l.Unlock(w, objs[i]); err != nil {
					t.Errorf("enterer unlock obj%d: %v", i, err)
				}
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
		case <-time.After(testutil.DefaultWaitTimeout):
			t.Fatal("two-object wait race participant never finished")
		}
	}
	for i := range counters {
		if counters[i] != enterRounds {
			t.Errorf("object %d counter = %d, want %d (lock state leaked across objects)",
				i, counters[i], enterRounds)
		}
	}
}

// testNestedHoldNotReleasedEarly: a lock held recursively must not be released
// before the *final* unlock. The holder takes a timed wait at depth 5
// (which releases and restores all five levels), then unwinds one level
// at a time while a contender tries to get in; the contender must only
// ever acquire after the holder's last unlock has cleared the held flag.
// An implementation that treats an intermediate unlock as a release, or
// restores the wait's depth short, hands the contender a lock the holder
// still owns.
func testNestedHoldNotReleasedEarly(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	o := f.heap.New("conf")

	const depth = 5
	held := false // guarded by o
	atDepth := make(chan struct{})
	holderDone, err := f.reg.Go("holder", func(w *threading.Thread) {
		for i := 0; i < depth; i++ {
			f.l.Lock(w, o)
		}
		held = true
		// The wait releases and re-acquires all five levels.
		if _, err := f.l.Wait(w, o, time.Millisecond); err != nil {
			t.Errorf("holder wait: %v", err)
		}
		close(atDepth)
		// Unwind with pauses so the contender's acquisition attempts
		// land between the intermediate releases.
		for i := 0; i < depth-1; i++ {
			if err := f.l.Unlock(w, o); err != nil {
				t.Errorf("holder unlock %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
		held = false
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("holder final unlock: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-atDepth
	contenderDone, err := f.reg.Go("contender", func(w *threading.Thread) {
		f.l.Lock(w, o)
		if held {
			t.Error("contender acquired while the nested holder was still at depth > 0")
		}
		if err := f.l.Unlock(w, o); err != nil {
			t.Errorf("contender unlock: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []<-chan struct{}{holderDone, contenderDone} {
		select {
		case <-done:
		case <-time.After(testutil.DefaultWaitTimeout):
			t.Fatal("nested-hold case never completed")
		}
	}
}
