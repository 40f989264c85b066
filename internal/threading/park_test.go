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

// TestLotBucketsOwnTheirCacheLines: a bucket is one 64-byte cache line
// and each starts one, so no two buckets' locks or queues share a line
// however the binary is linked.
func TestLotBucketsOwnTheirCacheLines(t *testing.T) {
	t.Parallel()
	if n := unsafe.Sizeof(bucket{}); n != 64 {
		t.Fatalf("sizeof(bucket) = %d, want 64", n)
	}
	for i, b := range lot {
		if a := uintptr(unsafe.Pointer(b)); a%64 != 0 {
			t.Errorf("bucket %d at %#x, %d bytes into a line", i, a, a%64)
		}
	}
}

// nodes returns q's nodes, head first.
func (q *queue) nodes() []*ParkNode {
	var out []*ParkNode
	for c := q.head(); c != nil; c = q.after(c) {
		out = append(out, c)
	}
	return out
}

// TestQueueFIFOAndRemove removes the head, the middle node and the tail
// of a three-node queue in turn. The removed node must link to nothing
// and be gone, and pushed back it must come last, after the others in
// their order.
func TestQueueFIFOAndRemove(t *testing.T) {
	t.Parallel()
	ths := attachN(t, 3)
	for drop := range ths {
		var q queue
		for _, th := range ths {
			q.Push(th.ParkNode())
		}
		if n := len(q.nodes()); n != 3 {
			t.Fatalf("%d nodes, want 3", n)
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
		got := q.nodes()
		for i, th := range want {
			if got[i] != th.ParkNode() {
				t.Fatalf("drop %d: node %d = %p, want %p", drop, i, got[i], th.ParkNode())
			}
		}
		for _, th := range want {
			q.Remove(th.ParkNode())
		}
		if q.tail != nil || q.head() != nil {
			t.Fatalf("drop %d: emptied queue keeps tail %p", drop, q.tail)
		}
	}
}

// TestBucketIsOneCacheLine pins a lot bucket at 64 bytes, one cache
// line, so neighbouring buckets' mutexes do not share one. The pad is
// sized by hand for a mutex and a one-word queue: a change to either
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
	if entry, waiting := Parked(o); entry+waiting != 0 {
		t.Fatal("refused park left the node in its bucket")
	}
}

// parkAsync parks th on key in a goroutine and returns a channel closed
// when Park returns. It waits until th's node is in key's bucket.
func parkAsync[K any](t *testing.T, th *Thread, key *K) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		Park(th, key, func() bool { return true })
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for th.ParkNode().key.Load() != addr(key) {
		if time.Now().After(deadline) {
			t.Fatal("thread never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return done
}

// sharedBucket returns two objects whose addresses hash to one bucket.
func sharedBucket() (a, b *object.Object) {
	h := object.NewHeap()
	seen := make(map[*bucket]*object.Object)
	for {
		o := h.New("k")
		if prev, ok := seen[bucketFor(addr(o))]; ok {
			return prev, o
		}
		seen[bucketFor(addr(o))] = o
	}
}

// grant is one call of a Handoff's grant.
type grant struct {
	next  *Thread
	count uint32
	more  bool
}

// handoff runs Handoff on key and returns what its grant was called
// with. The grant also checks that the thread it names is still filed.
func handoff[K any](t *testing.T, key *K) grant {
	t.Helper()
	var g grant
	calls := 0
	Handoff(key, func(next *Thread, count uint32, more bool) {
		calls++
		g = grant{next, count, more}
		if next != nil && next.ParkNode().key.Load() == nil {
			t.Error("grant ran after the thread's key was cleared")
		}
	})
	if calls != 1 {
		t.Fatalf("Handoff called its grant %d times, want 1", calls)
	}
	return g
}

// released fails unless done closes within 5 s.
func released(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s was not released", what)
	}
}

// stillParked fails if any of done closes within 5 ms.
func stillParked(t *testing.T, what string, done ...<-chan struct{}) {
	t.Helper()
	deadline := time.After(5 * time.Millisecond)
	for _, d := range done {
		select {
		case <-d:
			t.Fatalf("%s released a thread it should not have", what)
		case <-deadline:
			return
		}
	}
}

// TestHandoffIsFIFOAndMatchesKey parks three threads on two keys that
// share a bucket. A handoff on one key must release that key's
// longest-parked entry parker only, report to its grant whether
// another remains on the key, and never release a thread parked on the
// other key; with none left, the grant gets nil.
func TestHandoffIsFIFOAndMatchesKey(t *testing.T) {
	t.Parallel()
	ths := attachN(t, 3)
	a, b := sharedBucket()
	first := parkAsync(t, ths[0], a)
	other := parkAsync(t, ths[1], b)
	second := parkAsync(t, ths[2], a)

	if g := handoff(t, a); g.next != ths[0] || !g.more {
		t.Fatalf("first handoff granted %v (more %v), want thread 0 with more", g.next, g.more)
	}
	released(t, first, "the longest-parked thread")
	stillParked(t, "a handoff", second, other)
	if g := handoff(t, a); g.next != ths[2] || g.more {
		t.Fatalf("second handoff granted %v (more %v), want thread 2, the last", g.next, g.more)
	}
	released(t, second, "the second thread")
	stillParked(t, "a handoff on another key", other)
	if g := handoff(t, a); g != (grant{}) {
		t.Fatalf("handoff on a key with no entry parker granted %+v, want nil", g)
	}
	if n := UnparkAll(b); n != 1 {
		t.Fatalf("UnparkAll(b) woke %d, want 1", n)
	}
	released(t, other, "the other key's thread")
	ea, wa := Parked(a)
	eb, wb := Parked(b)
	if ea+wa+eb+wb != 0 {
		t.Fatal("bucket keeps nodes after every thread left")
	}
}

// TestHandoffSkipsWaiters files a waiter before an entry parker on one
// key. A handoff must pass the waiter by and leave it filed; once a
// relabel makes it an entry parker, the next handoff grants it, with
// the count it was filed with.
func TestHandoffSkipsWaiters(t *testing.T) {
	t.Parallel()
	ths := attachN(t, 2)
	k := object.NewHeap().New("k")
	File(ths[0], k, 3)
	parker := parkAsync(t, ths[1], k)
	if g := handoff(t, k); g.next != ths[1] || g.more {
		t.Fatalf("handoff granted %+v, want the entry parker, with no more", g)
	}
	released(t, parker, "the entry parker")
	if entry, waiting := Parked(k); entry != 0 || waiting != 1 {
		t.Fatalf("after the handoff: %d entry parkers, %d waiters; want the waiter alone", entry, waiting)
	}
	if g := handoff(t, k); g != (grant{}) {
		t.Fatalf("handoff with only a waiter filed granted %+v, want nil", g)
	}
	if n := Relabel(k, 1, nil); n != 1 {
		t.Fatalf("Relabel moved %d, want 1", n)
	}
	if g := handoff(t, k); g.next != ths[0] || g.count != 3 || g.more {
		t.Fatalf("handoff granted %+v, want the relabeled waiter with count 3", g)
	}
	if !Sleep(ths[0], 0) {
		t.Fatal("a relabeled, released waiter reports no notify")
	}
}

// TestHandoffGrantsBeforeRelease: what the grant writes, without
// synchronization of its own, is visible to the released thread as soon
// as its Park returns, because the grant runs before its key is
// cleared. The race detector checks the ordering.
func TestHandoffGrantsBeforeRelease(t *testing.T) {
	t.Parallel()
	th := attachN(t, 1)[0]
	k := object.NewHeap().New("k")
	var owner *Thread // written by the grant, read by the released thread
	done := make(chan struct{})
	go func() {
		defer close(done)
		Park(th, k, func() bool { return true })
		if owner != th {
			t.Error("released thread does not see its grant")
		}
	}()
	for th.ParkNode().key.Load() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	Handoff(k, func(next *Thread, _ uint32, _ bool) { owner = next })
	released(t, done, "the granted thread")
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
// over with UnparkAll. One op is one round trip, two park→unpark
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
			UnparkAll(keys[1-me])
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
