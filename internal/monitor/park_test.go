package monitor

import (
	"testing"
	"time"
	"unsafe"

	"thinlock/internal/threading"
)

// TestMonitorIs64Bytes pins the layout: latch, owner, count, index and
// two queue head/tail pairs, 56 bytes that the allocator rounds up to
// its 64-byte size class. A field added here is paid by every monitor an
// inflate-forever implementation keeps for life.
func TestMonitorIs64Bytes(t *testing.T) {
	t.Parallel()
	if n := unsafe.Sizeof(Monitor{}); n != 56 {
		t.Fatalf("sizeof(Monitor) = %d, want 56 (in the allocator's 64-byte size class)", n)
	}
}

// requireQueuesCleared fails unless both queues' head and tail are nil,
// so the monitor keeps no blocked thread's node reachable.
func requireQueuesCleared(t *testing.T, m *Monitor, when string) {
	t.Helper()
	m.latch.Lock()
	defer m.latch.Unlock()
	for name, q := range map[string]*threading.Queue{"entry": &m.entry, "wait": &m.waits} {
		if h, tl := q.Ends(); h != nil || tl != nil {
			t.Errorf("%s: %s queue keeps head %p tail %p", when, name, h, tl)
		}
	}
}

// TestQueuesClearedAfterLastWaiterLeaves drives every way a node enters
// and leaves the queues (a contended entry, a notified wait, a timed-out
// wait that re-queues behind an owner, an interrupted wait) and checks
// after each that the emptied queues point at nothing.
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
		if m.Owner() != w || m.Count() != 1 {
			t.Errorf("after interrupted wait: owner %v count %d", m.Owner(), m.Count())
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
