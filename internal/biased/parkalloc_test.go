package biased

import (
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// partner runs steps on a second goroutine, so a measured function can
// block one thread and release it from another. Handing a step over
// costs two channel operations and no allocation.
type partner struct {
	steps chan func()
	done  chan struct{}
}

func newPartner(t *testing.T) *partner {
	p := &partner{steps: make(chan func()), done: make(chan struct{})}
	go func() {
		for f := range p.steps {
			f()
			p.done <- struct{}{}
		}
	}()
	t.Cleanup(func() { close(p.steps) })
	return p
}

// await spins until cond holds; it allocates nothing.
func await(t *testing.T, what string, cond func() bool) {
	deadline := time.Now().Add(testutil.DefaultWaitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// inflate leaves o fat under l: a timed wait inflates it.
func inflate(t *testing.T, l lockapi.Locker, th *threading.Thread, o *object.Object) {
	l.Lock(th, o)
	if _, err := l.Wait(th, o, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(th, o); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingAllocatesNothing: every way a thread blocks parks its own
// park node on its own permit, so a blocked thread costs no allocation:
// an untimed monitor-entry block, a wait/notify handoff, a flat-lock
// contention park, compact monitors' contended park and lot wait/notify
// handoff, and a revocation wait. Only a timed wait may allocate, for
// its timer. Deliberately not parallel: AllocsPerRun reads global
// allocation counters.
func TestBlockingAllocatesNothing(t *testing.T) {
	if telemetry.Enabled() {
		t.Fatal("telemetry unexpectedly active")
	}
	const runs = 50
	w := newWorld(t, Options{})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	p := newPartner(t)
	o := w.heap.New("fat")
	inflate(t, w.l, a, o)
	m := w.l.table.Get(core.FatIndex(o.Header()))

	enterBlocked := func() {
		w.l.Lock(b, o)
		if err := w.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, func() {
		w.l.Lock(a, o)
		p.steps <- enterBlocked
		await(t, "b queues to enter", func() bool { return m.EntryQueueLen() == 1 })
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		<-p.done
	}); avg != 0 {
		t.Errorf("monitor-entry block allocates %.2f objects", avg)
	}

	waitNotified := func() {
		w.l.Lock(b, o)
		if notified, err := w.l.Wait(b, o, 0); !notified || err != nil {
			t.Errorf("Wait = (%v, %v), want notified", notified, err)
		}
		if err := w.l.Unlock(b, o); err != nil {
			t.Error(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, func() {
		p.steps <- waitNotified
		await(t, "b waits", func() bool { return m.WaitSetLen() == 1 })
		w.l.Lock(a, o)
		if err := w.l.Notify(a, o); err != nil {
			t.Fatal(err)
		}
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		<-p.done
	}); avg != 0 {
		t.Errorf("wait/notify handoff allocates %.2f objects", avg)
	}

	// Flat-lock contention: the parked contender wins the thin lock and
	// inflates it (locality of contention), so each cycle allocates one
	// Monitor and the park must add nothing to it.
	q := core.New(core.Options{QueuedInflation: true})
	thin := make([]*object.Object, runs+1)
	for i := range thin {
		thin[i] = w.heap.New("thin")
	}
	i := 0
	lockContended := func() {
		q.Lock(b, thin[i])
		if err := q.Unlock(b, thin[i]); err != nil {
			t.Error(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, func() {
		parks := q.Stats().QueuedParks
		q.Lock(a, thin[i])
		p.steps <- lockContended
		await(t, "b parks on the flc bit", func() bool { return q.Stats().QueuedParks > parks })
		if err := q.Unlock(a, thin[i]); err != nil {
			t.Fatal(err)
		}
		<-p.done
		i++
	}); avg != 1 {
		t.Errorf("flc park cycle allocates %.2f objects, want 1 (the inflated monitor)", avg)
	}

	// Compact monitors: the same contended park, which inflates nothing,
	// and an untimed wait/notify handoff on the lot.
	c := core.New(core.Options{Compact: true})
	co := w.heap.New("compact")
	lockCompact := func() {
		c.Lock(b, co)
		if err := c.Unlock(b, co); err != nil {
			t.Error(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, func() {
		parks := c.Stats().QueuedParks
		c.Lock(a, co)
		p.steps <- lockCompact
		await(t, "b parks on the lot", func() bool { return c.Stats().QueuedParks > parks })
		if err := c.Unlock(a, co); err != nil {
			t.Fatal(err)
		}
		<-p.done
	}); avg != 0 {
		t.Errorf("compact contended park allocates %.2f objects", avg)
	}
	waitCompact := func() {
		c.Lock(b, co)
		if notified, err := c.Wait(b, co, 0); !notified || err != nil {
			t.Errorf("compact Wait = (%v, %v), want notified", notified, err)
		}
		if err := c.Unlock(b, co); err != nil {
			t.Error(err)
		}
	}
	if avg := testing.AllocsPerRun(runs, func() {
		p.steps <- waitCompact
		await(t, "b waits on the lot", func() bool { return threading.Parked(co) == 1 })
		c.Lock(a, co)
		if err := c.Notify(a, co); err != nil {
			t.Fatal(err)
		}
		if err := c.Unlock(a, co); err != nil {
			t.Fatal(err)
		}
		<-p.done
	}); avg != 0 {
		t.Errorf("compact wait/notify handoff allocates %.2f objects", avg)
	}
	if s := c.Stats(); s.FatLocks != 0 {
		t.Errorf("compact monitors allocated %d monitors", s.FatLocks)
	}

	// Revocation wait: b waits out a sentinel that the test publishes
	// over, as publishRevoked does, once b has had time to park.
	r := w.heap.New("revoking")
	misc := r.Header() & core.MiscMask
	awaitSentinel := func() { w.l.awaitRevocation(b, r) }
	woken := 0
	if avg := testing.AllocsPerRun(runs, func() {
		r.SetHeader(core.BiasRevokingWord(misc))
		p.steps <- awaitSentinel
		time.Sleep(time.Millisecond)
		r.SetHeader(misc)
		woken += threading.UnparkAll(r)
		<-p.done
	}); avg != 0 {
		t.Errorf("revocation wait allocates %.2f objects", avg)
	}
	if woken == 0 {
		t.Error("no revocation wait parked: the measurement is vacuous")
	}
}
