package monitor

import (
	"strings"
	"testing"
	"time"
)

func TestRetireLifecycle(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	if m.Retired() {
		t.Fatal("fresh monitor retired")
	}

	// Retire requires sole ownership at depth 1.
	if m.Retire(ths[0]) {
		t.Fatal("retired an unowned monitor")
	}
	m.Enter(ths[0], nil)
	m.Enter(ths[0], nil)
	if m.Retire(ths[0]) {
		t.Fatal("retired at depth 2")
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	if m.Retire(ths[1]) {
		t.Fatal("non-owner retired the monitor")
	}
	if !m.Retire(ths[0]) {
		t.Fatal("owner at depth 1 could not retire")
	}
	if !m.Retired() {
		t.Fatal("Retired() false after Retire")
	}
	if m.Owner() != nil || m.Count() != 0 {
		t.Fatal("retire left ownership behind")
	}

	// A retired monitor rejects all entry forms.
	if m.EnterIfActive(ths[1], nil) {
		t.Fatal("EnterIfActive succeeded on retired monitor")
	}
	if m.TryEnter(ths[1]) {
		t.Fatal("TryEnter succeeded on retired monitor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Enter on retired monitor did not panic")
		}
	}()
	m.Enter(ths[1], nil)
}

func TestRetireRefusedWithQueuedThreads(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	m.Enter(ths[0], nil)
	entered := make(chan struct{})
	go func() {
		if !m.EnterIfActive(ths[1], nil) {
			t.Error("EnterIfActive failed on active monitor")
		}
		close(entered)
	}()
	waitFor(t, func() bool { return m.EntryQueueLen() == 1 })
	if m.Retire(ths[0]) {
		t.Fatal("retired with a queued entrant")
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("queued entrant lost")
	}
	if err := m.Exit(ths[1]); err != nil {
		t.Fatal(err)
	}
}

func TestRetireRefusedWithWaiters(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 2)
	m := New()
	go func() {
		m.Enter(ths[0], nil)
		if _, err := m.Wait(ths[0], 0); err != nil {
			t.Error(err)
		}
		if err := m.Exit(ths[0]); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool { return m.WaitSetLen() == 1 })
	m.Enter(ths[1], nil)
	if m.Retire(ths[1]) {
		t.Fatal("retired with a waiter in the wait set")
	}
	if err := m.Notify(ths[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.Exit(ths[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, m.Quiescent)
}

func TestEnterIfActiveBehavesLikeEnterWhenActive(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	if !m.EnterIfActive(ths[0], nil) {
		t.Fatal("EnterIfActive on fresh monitor failed")
	}
	if !m.EnterIfActive(ths[0], nil) {
		t.Fatal("recursive EnterIfActive failed")
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d", m.Count())
	}
	for i := 0; i < 2; i++ {
		if err := m.Exit(ths[0]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMonitorString(t *testing.T) {
	t.Parallel()
	ths := newThreads(t, 1)
	m := New()
	m.Enter(ths[0], nil)
	s := m.String()
	for _, want := range []string{"monitor(", "count=1", "entry=0", "wait=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if err := m.Exit(ths[0]); err != nil {
		t.Fatal(err)
	}
}
