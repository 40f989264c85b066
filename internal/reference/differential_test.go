package reference

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/lockapi"
	"thinlock/internal/monitorcache"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// implementations under differential test.
func underTest() map[string]func() lockapi.Locker {
	return map[string]func() lockapi.Locker{
		"ThinLock":         func() lockapi.Locker { return core.NewDefault() },
		"ThinLock-compact": func() lockapi.Locker { return core.New(core.Options{Compact: true}) },
		"ThinLock-2bit":    func() lockapi.Locker { return core.New(core.Options{CountBits: 2}) },
		"JDK111":           func() lockapi.Locker { return monitorcache.New(monitorcache.Options{Capacity: 4}) },
		"IBM112":           func() lockapi.Locker { return hotlocks.New(hotlocks.Options{Threshold: 2}) },
	}
}

// traceOp is one step of a generated single-threaded trace.
type traceOp struct {
	kind int // 0 lock, 1 unlock, 2 notify, 3 notifyAll, 4 timed wait(0ms)
	obj  int
}

// runTrace executes ops against l, returning the observable outcome
// sequence (error or not per op).
func runTrace(t *testing.T, l lockapi.Locker, heap *object.Heap,
	th *threading.Thread, objs []*object.Object, ops []traceOp) []bool {
	t.Helper()
	outcomes := make([]bool, len(ops))
	depth := make([]int, len(objs))
	for i, op := range ops {
		o := objs[op.obj]
		switch op.kind {
		case 0:
			l.Lock(th, o)
			depth[op.obj]++
			outcomes[i] = true
		case 1:
			err := l.Unlock(th, o)
			outcomes[i] = err == nil
			if err == nil {
				depth[op.obj]--
			}
		case 2:
			outcomes[i] = l.Notify(th, o) == nil
		case 3:
			outcomes[i] = l.NotifyAll(th, o) == nil
		case 4:
			// Tiny timed wait: must time out (no notifiers) and
			// restore the depth; error exactly when not owned.
			_, err := l.Wait(th, o, time.Microsecond)
			outcomes[i] = err == nil
		}
	}
	// Unwind all held locks so every implementation ends clean.
	for i, d := range depth {
		for j := 0; j < d; j++ {
			if err := l.Unlock(th, objs[i]); err != nil {
				t.Fatalf("%s: unwind unlock failed: %v", l.Name(), err)
			}
		}
	}
	return outcomes
}

// TestDifferentialSingleThreadTraces drives random operation sequences
// through the oracle and every optimized implementation; the outcome
// sequences (success/error per operation) must be identical.
func TestDifferentialSingleThreadTraces(t *testing.T) {
	t.Parallel()
	const numObjects = 3
	gen := func(seed int64, length int) []traceOp {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]traceOp, length)
		for i := range ops {
			ops[i] = traceOp{kind: rng.Intn(5), obj: rng.Intn(numObjects)}
		}
		return ops
	}

	prop := func(seed int64) bool {
		ops := gen(seed, 60)

		runUnder := func(mk func() lockapi.Locker) []bool {
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			th, err := reg.Attach("d")
			if err != nil {
				t.Fatal(err)
			}
			objs := make([]*object.Object, numObjects)
			for i := range objs {
				objs[i] = heap.New("X")
			}
			return runUnder2(t, mk(), heap, th, objs, ops)
		}

		want := runUnder(func() lockapi.Locker { return New() })
		for name, mk := range underTest() {
			got := runUnder(mk)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("seed %d: %s diverges from oracle at op %d (%+v): got %v want %v",
						seed, name, i, ops[i], got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// runUnder2 adapts runTrace (keeps the closure above readable).
func runUnder2(t *testing.T, l lockapi.Locker, heap *object.Heap,
	th *threading.Thread, objs []*object.Object, ops []traceOp) []bool {
	return runTrace(t, l, heap, th, objs, ops)
}

// TestDifferentialDeepNesting compares deep-recursion behaviour: the
// oracle has no inflation threshold, so all implementations must agree
// on pure lock/unlock outcomes even across the thin-count overflow.
func TestDifferentialDeepNesting(t *testing.T) {
	t.Parallel()
	const depth = 300 // crosses the 8-bit thin count boundary
	runUnder := func(mk func() lockapi.Locker) []bool {
		heap := object.NewHeap()
		reg := threading.NewRegistry()
		th, _ := reg.Attach("d")
		o := heap.New("X")
		l := mk()
		var out []bool
		for i := 0; i < depth; i++ {
			l.Lock(th, o)
			out = append(out, true)
		}
		for i := 0; i < depth; i++ {
			out = append(out, l.Unlock(th, o) == nil)
		}
		out = append(out, l.Unlock(th, o) == nil) // must fail everywhere
		return out
	}
	want := runUnder(func() lockapi.Locker { return New() })
	for name, mk := range underTest() {
		got := runUnder(mk)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverges at step %d", name, i)
			}
		}
	}
}

// TestOracleBasics sanity-checks the oracle itself.
func TestOracleBasics(t *testing.T) {
	t.Parallel()
	l := New()
	heap := object.NewHeap()
	reg := threading.NewRegistry()
	a, _ := reg.Attach("a")
	b, _ := reg.Attach("b")
	o := heap.New("X")

	if l.Owner(o) != 0 || l.Count(o) != 0 {
		t.Fatal("fresh object not unlocked")
	}
	l.Lock(a, o)
	l.Lock(a, o)
	if l.Owner(o) != a.Index() || l.Count(o) != 2 {
		t.Fatalf("owner=%d count=%d", l.Owner(o), l.Count(o))
	}
	if err := l.Unlock(b, o); err != ErrIllegalMonitorState {
		t.Fatal("non-owner unlock succeeded")
	}
	if err := l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatal("over-unlock succeeded")
	}

	// Contended handoff.
	l.Lock(a, o)
	done := make(chan struct{})
	go func() {
		l.Lock(b, o)
		if err := l.Unlock(b, o); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("oracle lost a blocked entrant")
	}

	// Wait/notify.
	woke := make(chan bool, 1)
	go func() {
		l.Lock(a, o)
		n, err := l.Wait(a, o, 0)
		if err != nil {
			t.Error(err)
		}
		woke <- n
		_ = l.Unlock(a, o)
	}()
	time.Sleep(10 * time.Millisecond)
	l.Lock(b, o)
	if err := l.Notify(b, o); err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-woke:
		if !n {
			t.Fatal("waiter woke without notify")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oracle lost a waiter")
	}
	if l.Name() != "Reference" {
		t.Fatal("name")
	}
}
