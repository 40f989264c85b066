package monitor

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// TestMonitorIs4Bytes pins the layout: one state word, 4 bytes. A
// Table holds its monitors by value, so no allocator size class absorbs
// a field added here: every monitor in the table pays for it, and an
// inflate-forever implementation keeps each one for life.
func TestMonitorIs4Bytes(t *testing.T) {
	t.Parallel()
	if n := unsafe.Sizeof(Monitor{}); n != 4 {
		t.Fatalf("sizeof(Monitor) = %d, want 4", n)
	}
}

// TestMonitorHoldsNoPointer walks Monitor's fields: none may hold a
// pointer, so a table chunk is noscan, needs no type header and fills
// its 256-byte size class exactly, and the collector never scans the
// monitor table.
func TestMonitorHoldsNoPointer(t *testing.T) {
	t.Parallel()
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk("Monitor", reflect.TypeOf(Monitor{}))
}

// requireQueuesCleared fails unless no thread is filed on the monitor's
// lot key, as an entry parker or as a waiter.
func requireQueuesCleared(t *testing.T, m *Monitor, when string) {
	t.Helper()
	if entry, waiting := threading.Parked(m); entry+waiting != 0 {
		t.Errorf("%s: %d entry parkers and %d waiters still filed", when, entry, waiting)
	}
}

// TestQueuesClearedAfterLastWaiterLeaves drives every way a node enters
// and leaves the lot (a contended entry, a notified wait, a timed-out
// wait that re-queues behind an owner, an interrupted wait) and checks
// after each that no node is left filed on the monitor.
func TestQueuesClearedAfterLastWaiterLeaves(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 3)
	a, b, c := ths[0], ths[1], ths[2]
	m := New()

	// Contended entry: b and c queue behind a, then drain.
	m.Enter(a, nil)
	done := make(chan struct{}, 2)
	for _, th := range []*threading.Thread{b, c} {
		th := th
		go func() {
			m.Enter(th, nil)
			if err := m.Exit(th); err != nil {
				t.Error(err)
			}
			done <- struct{}{}
		}()
	}
	waitFor(t, func() bool { return m.EntryQueueLen() == 2 })
	if err := m.Exit(a); err != nil {
		t.Fatal(err)
	}
	<-done
	<-done
	requireQueuesCleared(t, m, "after contended entries")

	// Notified wait.
	go func() {
		m.Enter(b, nil)
		if _, err := m.Wait(b, 0); err != nil {
			t.Error(err)
		}
		if err := m.Exit(b); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	m.Enter(a, nil)
	if err := m.Notify(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(a); err != nil {
		t.Fatal(err)
	}
	<-done
	requireQueuesCleared(t, m, "after a notified wait")

	// Timed-out wait that has to queue for re-entry behind an owner. The
	// timeout leaves a wide margin for a to enter first.
	m.Enter(b, nil)
	go func() {
		if _, err := m.Wait(b, 50*time.Millisecond); err != nil {
			t.Error(err)
		}
		if err := m.Exit(b); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	m.Enter(a, nil)
	waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
	if err := m.Exit(a); err != nil {
		t.Fatal(err)
	}
	<-done
	requireQueuesCleared(t, m, "after a timed-out wait")

	// Interrupted wait.
	m.Enter(c, nil)
	go func() {
		if _, err := m.Wait(c, 0); err != threading.ErrInterrupted {
			t.Errorf("Wait err = %v, want ErrInterrupted", err)
		}
		if err := m.Exit(c); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	c.Interrupt()
	<-done
	requireQueuesCleared(t, m, "after an interrupted wait")
}

// TestDoubleInterruptWakesWaiterOnce: two interrupts of one waiter must
// end its wait once, with ErrInterrupted and the monitor held, and the
// second interrupt must not disturb anything else.
func TestDoubleInterruptWakesWaiterOnce(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	w, other := ths[0], ths[1]
	m := New()
	errCh := make(chan error, 1)
	both := make(chan struct{})
	go func() {
		m.Enter(w, nil)
		_, err := m.Wait(w, 0)
		if m.OwnerIndex() != w.Index() || m.Count() != 1 {
			t.Errorf("after interrupted wait: owner %d count %d", m.OwnerIndex(), m.Count())
		}
		errCh <- err
		<-both
		w.Interrupted() // the second interrupt may land after the wait consumed the first
		// A leftover permit must not end this wait early: it times out.
		if notified, err := m.Wait(w, 5*time.Millisecond); notified || err != nil {
			t.Errorf("follow-up wait = (%v, %v), want a timeout", notified, err)
		}
		if err := m.Exit(w); err != nil {
			t.Error(err)
		}
		errCh <- nil
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	w.Interrupt()
	w.Interrupt()
	close(both)
	select {
	case err := <-errCh:
		if err != threading.ErrInterrupted {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("double interrupt did not wake the waiter")
	}
	<-errCh
	m.Enter(other, nil) // the waiter released the monitor
	if err := m.Exit(other); err != nil {
		t.Fatal(err)
	}
}

// TestObjectAndMonitorKeysAreApart parks one thread on an object, as
// Biased's revocation waiters and compact monitors' contenders do, and
// one on that object's monitor. A handoff of the monitor must release
// only its entrant, and a wake of the object only the object's thread.
func TestObjectAndMonitorKeysAreApart(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 3)
	owner, entrant, other := ths[0], ths[1], ths[2]
	o := object.NewHeap().New("o")
	m := New()
	m.Enter(owner, o)
	entered := make(chan struct{})
	go func() {
		m.Enter(entrant, o)
		close(entered)
	}()
	waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
	woke := make(chan struct{})
	go func() {
		threading.Park(other, o, func() bool { return true })
		close(woke)
	}()
	waitFor(t, func() bool { entry, _ := threading.Parked(o); return entry == 1 })

	if err := m.Exit(owner); err != nil {
		t.Fatal(err)
	}
	<-entered
	select {
	case <-woke:
		t.Fatal("the monitor's handoff released a thread parked on its object")
	case <-time.After(5 * time.Millisecond):
	}
	if n := threading.UnparkAll(o); n != 1 {
		t.Fatalf("UnparkAll(o) woke %d, want the object's thread", n)
	}
	<-woke

	done := make(chan struct{})
	go func() {
		m.Enter(other, o)
		if err := m.Exit(other); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
	if n := threading.UnparkAll(o); n != 0 {
		t.Fatalf("a wake of the object released %d of its monitor's entrants", n)
	}
	if err := m.Exit(entrant); err != nil {
		t.Fatal(err)
	}
	<-done
	requireQueuesCleared(t, m, "after both keys' threads left")
}
