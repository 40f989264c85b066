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

// The deflation-race cases below state monitor semantics every
// implementation must exhibit, but that only *deflating* implementations
// (core.Options.RecycleMonitors) can get wrong in interesting ways:
// a monitor deflated back to a thin word races a concurrent enter, a
// waiter must pin its monitor against deflation, a recycled index must
// not leak one object's monitor to another, and a recursively held
// monitor must never deflate early. Non-deflating implementations pass
// them trivially — which is exactly why they are stated here, once, for
// all implementations.

// testDeflateEnterRace: one thread continuously drives an object through
// the inflate → deflate cycle (a timed wait inflates; every final unlock
// is a deflation candidate) while two other threads hammer plain
// lock/unlock on the same object. Whatever state the header is caught
// in — thin, fat, mid-deflation, re-inflated — mutual exclusion must
// hold and every unlock must succeed.
func testDeflateEnterRace(t *testing.T, mk func() lockapi.Locker) {
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
			t.Fatal("deflate-enter race participant never finished")
		}
	}
	if want := churnRounds + enterers*enterRounds; counter != want {
		t.Fatalf("counter = %d, want %d (lost updates across deflation)", counter, want)
	}
}

// testDeflateVsWait: a waiter parked in Wait pins its monitor. Another
// thread then locks and fully releases the object many times — each
// release is a deflation candidate, but the non-empty wait set must veto
// it, or the waiter's monitor (wait set included) is thrown away and the
// final Notify lands on a fresh lock with nobody waiting.
func testDeflateVsWait(t *testing.T, mk func() lockapi.Locker) {
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
	// Acquiring here guarantees the waiter is inside Wait; each of the
	// following final unlocks would deflate if the wait set were
	// (wrongly) ignored.
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
		t.Fatal("waiter never woke: deflation discarded a parked waiter")
	}
	if !<-notified {
		t.Error("waiter reported notified = false after Notify")
	}
}

// testReinflateAfterDeflate: two objects alternately inflate and deflate
// while dedicated threads hammer each object, so a stale monitor
// reference (an implementation caching or recycling per-object monitor
// state) has every chance to resolve to the *other* object's current
// monitor. Each object's counter is guarded only by that object; any
// cross-object leak of a monitor loses updates or trips the per-object
// exclusivity tripwire.
func testReinflateAfterDeflate(t *testing.T, mk func() lockapi.Locker) {
	f := newFixture(t, mk)
	a, b := f.heap.New("conf"), f.heap.New("conf")

	const (
		churnRounds = 40
		enterRounds = 200
	)
	counters := [2]int{}
	var inside [2]atomic.Int32
	objs := [2]*object.Object{a, b}

	// The churner inflates a, deflates it (timed wait + full release),
	// then immediately does the same to b: with index recycling b's
	// fresh monitor tends to reuse a's just-freed slot, which is the
	// stale-index hazard under test.
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
			t.Fatal("reinflate race participant never finished")
		}
	}
	for i := range counters {
		if counters[i] != enterRounds {
			t.Errorf("object %d counter = %d, want %d (monitor leaked across objects)",
				i, counters[i], enterRounds)
		}
	}
}

// testNoDeflateWhileNested: a monitor held recursively must not deflate
// until the *final* release. The holder inflates at depth 5 (a timed
// wait forces fat state on thin-lock implementations), then unwinds one
// level at a time while a contender tries to get in; the contender must
// only ever acquire after the holder's last unlock has cleared the
// held flag. An implementation that treats any fat unlock as a deflation
// point hands the contender a lock the holder still owns.
func testNoDeflateWhileNested(t *testing.T, mk func() lockapi.Locker) {
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
		// Force fat state at full depth; the wait releases and
		// re-acquires all five levels.
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
			t.Fatal("nested-hold deflation case never completed")
		}
	}
}
