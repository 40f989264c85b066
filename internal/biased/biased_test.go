package biased

import (
	"fmt"
	"testing"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// world is one test's isolated locker, registry and heap.
type world struct {
	l    *Locker
	reg  *threading.Registry
	heap *object.Heap
}

func newWorld(t *testing.T, opts Options) *world {
	t.Helper()
	return &world{l: New(opts), reg: threading.NewRegistry(), heap: object.NewHeap()}
}

func (w *world) thread(t *testing.T, name string) *threading.Thread {
	t.Helper()
	th, err := w.reg.Attach(name)
	if err != nil {
		t.Fatalf("attach %s: %v", name, err)
	}
	return th
}

// TestReservationLifecycle: the first acquisition installs a
// reservation; re-acquisitions and releases by the owner leave the
// header word untouched and cost no further installs.
func TestReservationLifecycle(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	if !w.l.Biased(o) {
		t.Fatal("first lock did not install a reservation")
	}
	if hi := w.l.HolderIndex(o); hi != 0 {
		t.Fatalf("HolderIndex = %d for a biased word, want 0 (depth is slot-private)", hi)
	}
	header := o.Header()
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	if !w.l.Biased(o) {
		t.Fatal("release dropped the reservation")
	}
	for i := 0; i < 50; i++ {
		w.l.Lock(a, o)
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatalf("round %d unlock: %v", i, err)
		}
	}
	if got := o.Header(); got != header {
		t.Fatalf("owner's reacquisitions wrote the header: %#08x → %#08x", header, got)
	}
	s := w.l.Stats()
	if s.BiasInstalls != 1 {
		t.Fatalf("BiasInstalls = %d, want 1", s.BiasInstalls)
	}
	if s.Revocations() != 0 || s.Inflations() != 0 || s.FatLocks != 0 {
		t.Fatalf("single-owner use triggered revocation/inflation: %+v", s)
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("unheld unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// TestContenderRevokesUnheldReservation: a second thread locking an
// object whose reservation is not currently held must revoke the bias
// (rebiasing is off here, so no transfer) and acquire a conventional
// thin lock.
func TestContenderRevokesUnheldReservation(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{DisableRebias: true})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	w.l.Lock(b, o)
	if w.l.Biased(o) {
		t.Fatal("reservation survived a contender's acquisition")
	}
	if hi := w.l.HolderIndex(o); hi != b.Index() {
		t.Fatalf("HolderIndex = %d, want %d", hi, b.Index())
	}
	if err := w.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}
	s := w.l.Stats()
	if s.RevocationsContention != 1 {
		t.Fatalf("RevocationsContention = %d, want 1", s.RevocationsContention)
	}
	if s.BiasTransfers != 0 {
		t.Fatalf("BiasTransfers = %d with rebiasing disabled", s.BiasTransfers)
	}
	// Revoking an unheld reservation allocates no monitor.
	if s.FatLocks != 0 {
		t.Fatalf("FatLocks = %d after an uncontended revocation", s.FatLocks)
	}
	// The object must never re-bias after revocation.
	w.l.Lock(a, o)
	if w.l.Biased(o) {
		t.Fatal("object re-biased after revocation")
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
}

// TestContenderRevokesHeldReservation: revoking a reservation held at
// depth d must surface exactly depth d in the conventional word — the
// owner unwinds with exactly d unlocks and the blocked contender then
// acquires. The owner's last release goes through the thin word and
// leaves its bias slot stale at depth d, so its later thin locking must
// not read that slot: two more locks and unlocks must leave the object
// unlocked.
func TestContenderRevokesHeldReservation(t *testing.T) {
	t.Parallel()
	for _, depth := range []int{1, 2} {
		depth := depth
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			t.Parallel()
			w := newWorld(t, Options{})
			a := w.thread(t, "a")
			o := w.heap.New("obj")

			for i := 0; i < depth; i++ {
				w.l.Lock(a, o)
			}
			acquired := make(chan struct{})
			done, err := w.reg.Go("b", func(b *threading.Thread) {
				w.l.Lock(b, o)
				close(acquired)
				if err := w.l.Unlock(b, o); err != nil {
					t.Errorf("b unlock: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Wait until the contender has published the walked word (a
			// thin word owned by a), proving the revocation ran against
			// a *held* reservation rather than after our releases.
			for w.l.HolderIndex(o) != a.Index() {
				time.Sleep(50 * time.Microsecond)
			}
			select {
			case <-acquired:
				t.Fatalf("contender acquired while the reservation was held at depth %d", depth)
			default:
			}
			for i := 0; i < depth; i++ {
				if err := w.l.Unlock(a, o); err != nil {
					t.Fatalf("unlock %d: %v", i+1, err)
				}
			}
			select {
			case <-done:
			case <-time.After(testutil.DefaultWaitTimeout):
				t.Fatal("contender never acquired after the owner unwound")
			}
			for i := 0; i < 2; i++ {
				w.l.Lock(a, o)
			}
			for i := 0; i < 2; i++ {
				if err := w.l.Unlock(a, o); err != nil {
					t.Fatalf("relock unlock %d: %v", i+1, err)
				}
			}
			if hi := w.l.HolderIndex(o); hi != 0 {
				t.Fatalf("HolderIndex = %d after balanced relocking, want 0 (a release was lost)", hi)
			}
			if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
				t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
			}
			s := w.l.Stats()
			if s.RevocationsContention != 1 {
				t.Fatalf("RevocationsContention = %d, want 1", s.RevocationsContention)
			}
			if uint64(s.FatLocks) != s.Inflations() {
				t.Fatalf("FatLocks = %d, Inflations = %d: monitor accounting broken", s.FatLocks, s.Inflations())
			}
		})
	}
}

// TestTransferBackNamesTheSlotHoldingItsID: a reservation transferred
// to another thread and back names, in each owner's biased word, the
// slot of that owner's table that holds its id. Back home it reuses the
// slot its id never left, not the first free one, and the owner's
// reacquisitions then run through that slot without writing the word.
func TestTransferBackNamesTheSlotHoldingItsID(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{RebiasThreshold: 1})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	lockUnlock := func(th *threading.Thread, o *object.Object) {
		t.Helper()
		w.l.Lock(th, o)
		if err := w.l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	// named returns the slot o's header names, after checking that the
	// header is th's reservation and that the slot holds o and the word.
	named := func(th *threading.Thread, o *object.Object) int {
		t.Helper()
		h := o.Header()
		if !w.l.Biased(o) || core.BiasOwner(h) != th.Index() {
			t.Fatalf("header %#08x is not a reservation of %s", h, th)
		}
		i := core.BiasSlotIndex(h)
		if s := th.BiasSlot(i); s.ObjectID() != o.ID() || s.Word() != h {
			t.Fatalf("slot %d of %s holds id %d, word %#08x; want id %d, word %#08x",
				i, th, s.ObjectID(), s.Word(), o.ID(), h)
		}
		return i
	}
	// bump revokes a fresh reservation of target's class, which moves
	// the class epoch on (threshold 1) and makes target's stale.
	bump := func() {
		c := w.heap.New("cls")
		lockUnlock(b, c)
		lockUnlock(a, c)
	}

	f, target := w.heap.New("filler"), w.heap.New("cls")
	lockUnlock(a, f)
	lockUnlock(a, target)
	if i := named(a, target); i != 1 {
		t.Fatalf("a reserved target in slot %d, want 1", i)
	}
	// Wait self-revokes f's reservation, which frees a's slot 0.
	w.l.Lock(a, f)
	if _, err := w.l.Wait(a, f, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := w.l.Unlock(a, f); err != nil {
		t.Fatal(err)
	}
	if id := a.BiasSlot(0).ObjectID(); id != 0 {
		t.Fatalf("a's slot 0 still holds id %d after Wait self-revoked it", id)
	}

	// Two fillers and the bump's reservation occupy b's slots 0..2, so
	// the transfer lands in b's slot 3.
	lockUnlock(b, w.heap.New("filler"))
	lockUnlock(b, w.heap.New("filler"))
	bump()
	lockUnlock(b, target)
	if i := named(b, target); i != 3 {
		t.Fatalf("transfer to b named slot %d, want 3", i)
	}
	if id := a.BiasSlot(1).ObjectID(); id != target.ID() {
		t.Fatalf("a's slot 1 holds id %d after the transfer away, want target's %d", id, target.ID())
	}

	bump()
	lockUnlock(a, target)
	if i := named(a, target); i != 1 {
		t.Fatalf("transfer back to a named slot %d, want 1, the slot holding its id", i)
	}
	if id := a.BiasSlot(0).ObjectID(); id != 0 {
		t.Fatalf("the transfer back also claimed a's free slot 0 (id %d)", id)
	}
	if s := w.l.Stats(); s.BiasTransfers != 2 {
		t.Fatalf("BiasTransfers = %d, want 2", s.BiasTransfers)
	}
	h := target.Header()
	for i := 0; i < 20; i++ {
		w.l.Lock(a, target)
		w.l.Lock(a, target)
		if d := a.BiasSlot(1).Depth(); d != 2 {
			t.Fatalf("nested reacquire left depth %d in slot 1, want 2", d)
		}
		for j := 0; j < 2; j++ {
			if err := w.l.Unlock(a, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := target.Header(); got != h {
		t.Fatalf("the owner's reacquisitions wrote the header: %#08x → %#08x", h, got)
	}
}

// TestUnlockMeetsOwnSentinel: an owner whose Unlock meets the
// revocation sentinel of its own held reservation publishes the release
// through the slot the sentinel names and, once the revoker publishes
// the walked word, reconciles to the right depth, whichever depth the
// revoker read. The test plays the revoker by hand so that it holds the
// sentinel while the owner unlocks, and the reservation sits in slot 2
// so that a sentinel without its slot field would send the owner to
// slot 0.
func TestUnlockMeetsOwnSentinel(t *testing.T) {
	t.Parallel()
	for _, readAfter := range []bool{false, true} {
		readAfter := readAfter
		name := "revoker-reads-depth-before-release"
		if readAfter {
			name = "revoker-reads-depth-after-release"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := newWorld(t, Options{DisableRebias: true})
			a := w.thread(t, "a")
			for j := 0; j < 2; j++ {
				f := w.heap.New("filler")
				w.l.Lock(a, f)
				if err := w.l.Unlock(a, f); err != nil {
					t.Fatal(err)
				}
			}
			o := w.heap.New("obj")
			w.l.Lock(a, o)
			w.l.Lock(a, o)
			h := o.Header()
			i := core.BiasSlotIndex(h)
			if i != 2 {
				t.Fatalf("reservation in slot %d, want 2", i)
			}
			s := a.BiasSlot(i)

			// The revoker wins the sentinel; it names the owner's slot.
			sentinel := core.BiasRevokingWord(h)
			if core.BiasSlotIndex(sentinel) != i || !core.IsBiasRevoking(sentinel) {
				t.Fatalf("sentinel %#08x of %#08x does not name slot %d", sentinel, h, i)
			}
			if !o.CASHeader(h, sentinel) {
				t.Fatal("sentinel CAS failed")
			}
			var depth uint64
			if !readAfter {
				depth = s.Depth()
			}
			unlocked := make(chan error, 1)
			go func() { unlocked <- w.l.Unlock(a, o) }()
			testutil.Eventually(t, testutil.DefaultWaitTimeout, "the owner publishes depth 1 in the slot the sentinel names",
				func() bool { return s.Depth() == 1 })
			if readAfter {
				depth = s.Depth()
			}
			// The revoker publishes the walked word, as revoke does.
			misc := h & core.MiscMask
			o.SetFlagBits(FlagBiasDead)
			publishRevoked(o, core.ThinWord(a.Index(), uint32(depth-1), misc))

			select {
			case err := <-unlocked:
				if err != nil {
					t.Fatalf("unlock across the sentinel: %v", err)
				}
			case <-time.After(testutil.DefaultWaitTimeout):
				t.Fatal("the owner's unlock never returned after the walked word was published")
			}
			if got, want := o.Header(), core.ThinWord(a.Index(), 0, misc); got != want {
				t.Fatalf("header %#08x after the reconciled unlock, want %#08x (held once)", got, want)
			}
			if id := s.ObjectID(); id != 0 {
				t.Fatalf("the slot still holds id %d after its reservation was revoked", id)
			}
			if err := w.l.Unlock(a, o); err != nil {
				t.Fatalf("last unlock: %v", err)
			}
			if hi := w.l.HolderIndex(o); hi != 0 {
				t.Fatalf("HolderIndex = %d after both unlocks, want 0", hi)
			}
			if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
				t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
			}
		})
	}
}

// TestWaitSelfRevokesToFat: Wait on a reserved object must self-revoke
// straight to a fat lock carrying the reservation's depth.
func TestWaitSelfRevokesToFat(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	w.l.Lock(a, o)
	notified, err := w.l.Wait(a, o, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if notified {
		t.Fatal("notified = true on a timeout")
	}
	if !w.l.Inflated(o) {
		t.Fatal("Wait on a reservation did not inflate")
	}
	s := w.l.Stats()
	if s.RevocationsWait != 1 || s.InflationsWait != 1 {
		t.Fatalf("RevocationsWait = %d, InflationsWait = %d, want 1/1", s.RevocationsWait, s.InflationsWait)
	}
	for i := 0; i < 2; i++ {
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// TestOverflowSelfRevokesToFat: recursion past the biased depth cap
// (128) self-revokes to a fat lock; the full depth must unwind exactly.
func TestOverflowSelfRevokesToFat(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	const depth = maxBiasDepth + 1 // one past the cap
	for i := 0; i < depth; i++ {
		w.l.Lock(a, o)
	}
	if !w.l.Inflated(o) {
		t.Fatal("recursion past the bias depth cap did not inflate")
	}
	s := w.l.Stats()
	if s.RevocationsOverflow != 1 || s.InflationsOverflow != 1 {
		t.Fatalf("RevocationsOverflow = %d, InflationsOverflow = %d, want 1/1",
			s.RevocationsOverflow, s.InflationsOverflow)
	}
	for i := 0; i < depth; i++ {
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatalf("unlock %d: %v", i, err)
		}
	}
	if err := w.l.Unlock(a, o); err != ErrIllegalMonitorState {
		t.Fatalf("extra unlock err = %v, want ErrIllegalMonitorState", err)
	}
}

// TestBulkRebiasTransfersStaleReservation: after a class-epoch bump, an
// unheld reservation stamped with the old epoch is transferred to the
// contender (one CAS) instead of being revoked to a thin word.
func TestBulkRebiasTransfersStaleReservation(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{RebiasThreshold: 1})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	churn, target := w.heap.New("cls"), w.heap.New("cls")

	// Reserve the target first so it is stamped with epoch 0.
	w.l.Lock(a, target)
	if err := w.l.Unlock(a, target); err != nil {
		t.Fatal(err)
	}
	// One revocation on the class bumps the epoch (threshold 1),
	// making the target's reservation stale.
	w.l.Lock(a, churn)
	if err := w.l.Unlock(a, churn); err != nil {
		t.Fatal(err)
	}
	w.l.Lock(b, churn)
	if err := w.l.Unlock(b, churn); err != nil {
		t.Fatal(err)
	}
	if s := w.l.Stats(); s.BulkRebiases != 1 {
		t.Fatalf("BulkRebiases = %d after the threshold revocation, want 1", s.BulkRebiases)
	}
	// The contender now finds a stale, unheld reservation: transfer.
	w.l.Lock(b, target)
	if !w.l.Biased(target) {
		t.Fatal("stale reservation was revoked instead of transferred")
	}
	if err := w.l.Unlock(b, target); err != nil {
		t.Fatal(err)
	}
	s := w.l.Stats()
	if s.BiasTransfers != 1 {
		t.Fatalf("BiasTransfers = %d, want 1", s.BiasTransfers)
	}
	// The new reservation must serve its owner's fast path.
	w.l.Lock(b, target)
	if err := w.l.Unlock(b, target); err != nil {
		t.Fatal(err)
	}
	// And the original owner must still be able to lock (revoking b's
	// current-epoch reservation conventionally).
	w.l.Lock(a, target)
	if err := w.l.Unlock(a, target); err != nil {
		t.Fatal(err)
	}
}

// TestBulkRevokeDisablesClass: past the revoke threshold the class is
// declared unbiasable and new objects of that class go straight to thin
// words.
func TestBulkRevokeDisablesClass(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{DisableRebias: true, RevokeThreshold: 2})
	a, b := w.thread(t, "a"), w.thread(t, "b")

	for i := 0; i < 2; i++ {
		o := w.heap.New("hot")
		w.l.Lock(a, o)
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		w.l.Lock(b, o)
		if err := w.l.Unlock(b, o); err != nil {
			t.Fatal(err)
		}
	}
	s := w.l.Stats()
	if s.BulkRevokes != 1 {
		t.Fatalf("BulkRevokes = %d after %d revocations, want 1", s.BulkRevokes, s.RevocationsContention)
	}
	fresh := w.heap.New("hot")
	w.l.Lock(a, fresh)
	if w.l.Biased(fresh) {
		t.Fatal("unbiasable class still installed a reservation")
	}
	if err := w.l.Unlock(a, fresh); err != nil {
		t.Fatal(err)
	}
	// An unrelated class is unaffected.
	other := w.heap.New("cold")
	w.l.Lock(a, other)
	if !w.l.Biased(other) {
		t.Fatal("bulk revoke of one class leaked into another")
	}
	if err := w.l.Unlock(a, other); err != nil {
		t.Fatal(err)
	}
}

// TestDisableBiasDegeneratesToThin: with bias off the implementation is
// a plain thin lock and never reserves anything.
func TestDisableBiasDegeneratesToThin(t *testing.T) {
	t.Parallel()
	w := newWorld(t, Options{DisableBias: true})
	a := w.thread(t, "a")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	if w.l.Biased(o) {
		t.Fatal("reservation installed with DisableBias")
	}
	if hi := w.l.HolderIndex(o); hi != a.Index() {
		t.Fatalf("HolderIndex = %d, want %d", hi, a.Index())
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	if s := w.l.Stats(); s.BiasInstalls != 0 {
		t.Fatalf("BiasInstalls = %d with DisableBias", s.BiasInstalls)
	}
}

// TestNames pins the Name values the registries and reports key on.
func TestNames(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "Biased"},
		{Options{DisableRebias: true}, "Biased-norebias"},
		{Options{DisableBias: true}, "Biased-off"},
	} {
		if got := New(tc.opts).Name(); got != tc.want {
			t.Errorf("Name(%+v) = %q, want %q", tc.opts, got, tc.want)
		}
	}
}

// TestTelemetryCountsBiasEvents: with telemetry enabled the biased
// acquire and revocation counters must come out nonzero for a workload
// that exercises them. Not parallel: telemetry is process-global.
func TestTelemetryCountsBiasEvents(t *testing.T) {
	tel := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	w := newWorld(t, Options{DisableRebias: true})
	a, b := w.thread(t, "a"), w.thread(t, "b")
	o := w.heap.New("obj")

	w.l.Lock(a, o)
	for i := 0; i < 9; i++ {
		if err := w.l.Unlock(a, o); err != nil {
			t.Fatal(err)
		}
		w.l.Lock(a, o)
	}
	if err := w.l.Unlock(a, o); err != nil {
		t.Fatal(err)
	}
	w.l.Lock(b, o)
	if err := w.l.Unlock(b, o); err != nil {
		t.Fatal(err)
	}

	if got := tel.Counter(telemetry.CtrBiasInstalls); got != 1 {
		t.Errorf("bias_installs = %d, want 1", got)
	}
	if got := tel.Counter(telemetry.CtrBiasedAcquires); got != 9 {
		t.Errorf("biased_acquires = %d, want 9", got)
	}
	if got := tel.Counter(telemetry.CtrBiasRevocationsContention); got != 1 {
		t.Errorf("bias_revocations_contention = %d, want 1", got)
	}

	// Objects a thread will not reserve take the conventional fast
	// path, a thin CAS to lock and a plain store to unlock, without
	// entering the slow path: a fresh object when all of the thread's
	// bias slots are claimed, a revoked object (o, revoked by b above),
	// and any object under DisableBias.
	c := w.thread(t, "c")
	claimAllBiasSlots(t, w.l, c, w.heap)
	off := New(Options{DisableBias: true})
	for _, tc := range []struct {
		name string
		l    *Locker
		o    *object.Object
	}{
		{"fresh", w.l, w.heap.New("obj")},
		{"revoked", w.l, o},
		{"DisableBias", off, w.heap.New("obj")},
	} {
		before := tel.Counter(telemetry.CtrSlowPathEntries)
		tc.l.Lock(c, tc.o)
		if hi := tc.l.HolderIndex(tc.o); hi != c.Index() {
			t.Errorf("%s: HolderIndex = %d while locked, want %d (a thin word)", tc.name, hi, c.Index())
		}
		if err := tc.l.Unlock(c, tc.o); err != nil {
			t.Fatalf("%s: unlock: %v", tc.name, err)
		}
		if got := tel.Counter(telemetry.CtrSlowPathEntries) - before; got != 0 {
			t.Errorf("%s: slow_path_entries = %d for one lock and unlock, want 0", tc.name, got)
		}
	}
}

// claimAllBiasSlots reserves fresh objects for th until every one of
// its bias slots is claimed.
func claimAllBiasSlots(t *testing.T, l *Locker, th *threading.Thread, heap *object.Heap) {
	t.Helper()
	for i := 0; i < threading.BiasSlots && !th.BiasSlotsFull(); i++ {
		o := heap.New("filler")
		l.Lock(th, o)
		if err := l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}
	if !th.BiasSlotsFull() {
		t.Fatal("reserving BiasSlots fresh objects left a bias slot free")
	}
}
