package threading

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"thinlock/internal/object"
)

func attachN(t testing.TB, n int) []*Thread {
	t.Helper()
	r := NewRegistry()
	out := make([]*Thread, n)
	for i := range out {
		th, err := r.Attach("t")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = th
	}
	return out
}

// TestQueueFIFOAndRemove removes the head, the middle node and the tail
// of a three-node queue in turn. The removed node must link to nothing
// and be gone, and pushed back it must pop last, after the others in
// their order.
func TestQueueFIFOAndRemove(t *testing.T) {
	t.Parallel()
	ths := attachN(t, 3)
	for drop := range ths {
		var q Queue
		for _, th := range ths {
			q.Push(th.ParkNode())
		}
		if q.Len() != 3 {
			t.Fatalf("Len = %d, want 3", q.Len())
		}
		n := ths[drop].ParkNode()
		if !q.Remove(n) || n.next != nil {
			t.Fatalf("drop %d: Remove failed or left next %p", drop, n.next)
		}
		if q.Remove(n) {
			t.Fatalf("drop %d: Remove of an absent node succeeded", drop)
		}
		q.Push(n)
		want := append(append(append([]*Thread{}, ths[:drop]...), ths[drop+1:]...), ths[drop])
		for i, th := range want {
			if got := q.Pop(); got != th.ParkNode() {
				t.Fatalf("drop %d: Pop %d = %p, want %p", drop, i, got, th.ParkNode())
			}
		}
		if q.tail != nil || q.Pop() != nil {
			t.Fatalf("drop %d: emptied queue keeps tail %p", drop, q.tail)
		}
	}
}

// TestBucketIsOneCacheLine pins a lot bucket at 64 bytes, one cache
// line, so neighbouring buckets' mutexes do not share one. The pad is
// sized by hand for a mutex and a one-word Queue: a change to either
// must resize it.
func TestBucketIsOneCacheLine(t *testing.T) {
	t.Parallel()
	if n := unsafe.Sizeof(bucket{}); n != 64 {
		t.Fatalf("sizeof(bucket) = %d, want 64", n)
	}
}

func TestParkValidateFalseDoesNotBlock(t *testing.T) {
	t.Parallel()
	th := attachN(t, 1)[0]
	o := object.NewHeap().New("k")
	if Park(th, o, func() bool { return false }) {
		t.Fatal("Park reported a park although validate refused")
	}
	if Parked(o) != 0 {
		t.Fatal("refused park left the node in its bucket")
	}
}

// parkAsync parks th on o in a goroutine and returns a channel closed
// when Park returns. It waits until th's node is in o's bucket.
func parkAsync(t *testing.T, th *Thread, o *object.Object) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		Park(th, o, func() bool { return true })
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for th.ParkNode().key.Load() != o {
		if time.Now().After(deadline) {
			t.Fatal("thread never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return done
}

func TestUnparkOneIsFIFOAndMatchesKey(t *testing.T) {
	t.Parallel()
	ths := attachN(t, 3)
	// Two heaps: the objects share an id, so they share a bucket, but
	// an unpark of one must never release a thread parked on the other.
	a, b := object.NewHeap().New("a"), object.NewHeap().New("b")
	first := parkAsync(t, ths[0], a)
	other := parkAsync(t, ths[1], b)
	second := parkAsync(t, ths[2], a)

	if !UnparkOne(a) {
		t.Fatal("UnparkOne found nobody")
	}
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("longest-parked thread not released")
	}
	select {
	case <-second:
		t.Fatal("UnparkOne released two threads")
	case <-other:
		t.Fatal("UnparkOne released a thread parked on another object")
	case <-time.After(5 * time.Millisecond):
	}
	if n := UnparkAll(a); n != 1 {
		t.Fatalf("UnparkAll(a) woke %d, want 1", n)
	}
	<-second
	if n := UnparkAll(b); n != 1 {
		t.Fatalf("UnparkAll(b) woke %d, want 1", n)
	}
	<-other
	if UnparkOne(a) {
		t.Fatal("UnparkOne on an empty key reported a wake")
	}
	if Parked(a)+Parked(b) != 0 {
		t.Fatal("bucket keeps nodes after every thread left")
	}
}

func TestInterruptDoesNotReleaseLotPark(t *testing.T) {
	t.Parallel()
	th := attachN(t, 1)[0]
	o := object.NewHeap().New("k")
	done := parkAsync(t, th, o)
	th.Interrupt()
	select {
	case <-done:
		t.Fatal("Interrupt released a lot park")
	case <-time.After(5 * time.Millisecond):
	}
	UnparkAll(o)
	<-done
	if !th.Interrupted() {
		t.Fatal("interrupt status lost")
	}
}

// BenchmarkParkUnpark is the lot's unit cost: two threads pass a turn
// back and forth, each parking on its own key until the other hands it
// over with UnparkOne. One op is one round trip, two park→unpark
// handoffs.
func BenchmarkParkUnpark(b *testing.B) {
	ths := attachN(b, 2)
	h := object.NewHeap()
	keys := [2]*object.Object{h.New("ping"), h.New("pong")}
	var turn atomic.Int64 // even: thread 0 moves; odd: thread 1
	play := func(me int64) {
		th := ths[me]
		for i := 0; i < b.N; i++ {
			for turn.Load()&1 != me {
				Park(th, keys[me], func() bool { return turn.Load()&1 != me })
			}
			turn.Add(1)
			UnparkOne(keys[1-me])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		play(1)
		close(done)
	}()
	play(0)
	<-done
}
