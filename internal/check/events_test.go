package check

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// eventRecorder counts the lock events of one registry's threads, per
// kind and per thread index.
type eventRecorder struct {
	reg  *threading.Registry
	seen [lockevent.NumKinds]atomic.Int64
	// blocked[i] counts the Block and Spin events of thread index i.
	blocked [8]atomic.Int64
	// waiting[i] counts the WaitBegin events of thread index i.
	waiting [8]atomic.Int64
}

func (r *eventRecorder) LockEvent(k lockevent.Kind, t *threading.Thread, _ *object.Object, _ int64) {
	if t == nil || t.Registry() != r.reg {
		return
	}
	r.seen[k].Add(1)
	switch k {
	case lockevent.Block, lockevent.Spin:
		r.blocked[t.Index()].Add(1)
	case lockevent.WaitBegin:
		r.waiting[t.Index()].Add(1)
	}
}

// await polls c until it is positive, reporting false on timeout; the
// recorder is the only signal that a thread has reached a blocking
// point.
func await(c *atomic.Int64) bool {
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() == 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// TestEveryImplementationEmitsTheVocabulary runs a two-thread contended
// acquire and a wait/notify round on every registered implementation
// (bar the Reference oracle, which stays hook-free) with a recording
// observer installed, and checks each reports the lock-event
// vocabulary: acquire, release, the slow-path span, a block, the wait
// bracket and notify, plus inflation for the thin-lock and biased
// configurations other than compact monitors, which must not inflate. The baselines' slow-path spans must also reach
// telemetry's slow-path counter and latency histogram. Not parallel:
// owns the global observer registrations.
func TestEveryImplementationEmitsTheVocabulary(t *testing.T) {
	for _, name := range ImplementationNames() {
		if name == "Reference" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			l := Implementations()[name]()
			reg := threading.NewRegistry()
			rec := &eventRecorder{reg: reg}
			lockevent.Install(lockevent.SlotRecorder, rec, 1<<lockevent.NumKinds-1)
			defer lockevent.Install(lockevent.SlotRecorder, nil, 0)
			tel := telemetry.Enable(telemetry.New())
			defer telemetry.Disable()

			a, err := reg.Attach("a")
			if err != nil {
				t.Fatal(err)
			}
			o := object.NewHeap().New("Shared")

			// Contended acquire: b blocks on o while a holds it.
			l.Lock(a, o)
			var bIndex atomic.Int64
			done, err := reg.Go("b", func(b *threading.Thread) {
				bIndex.Store(int64(b.Index()))
				l.Lock(b, o)
				if err := l.Unlock(b, o); err != nil {
					t.Error(err)
				}
				// Notifier: lock once a is (about to be) waiting.
				if !await(&rec.waiting[a.Index()]) {
					t.Error("timed out waiting for a to wait")
				}
				l.Lock(b, o)
				if err := l.Notify(b, o); err != nil {
					t.Error(err)
				}
				if err := l.Unlock(b, o); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !await(&bIndex) || !await(&rec.blocked[bIndex.Load()]) {
				t.Fatal("timed out waiting for b to block")
			}
			if err := l.Unlock(a, o); err != nil {
				t.Fatal(err)
			}

			// Wait/notify round: a waits, b notifies.
			l.Lock(a, o)
			notified, err := l.Wait(a, o, 10*time.Second)
			if err != nil || !notified {
				t.Fatalf("Wait = %v, %v; want notified", notified, err)
			}
			if err := l.Unlock(a, o); err != nil {
				t.Fatal(err)
			}
			<-done

			want := []lockevent.Kind{
				lockevent.Acquire, lockevent.Release, lockevent.SlowEnter, lockevent.SlowExit,
				lockevent.Block, lockevent.WaitBegin, lockevent.WaitEnd, lockevent.Notify,
			}
			for _, k := range want {
				if rec.seen[k].Load() == 0 {
					t.Errorf("no event of kind %d", k)
				}
			}
			n := rec.seen[lockevent.InflateContention].Load() + rec.seen[lockevent.InflateOverflow].Load() +
				rec.seen[lockevent.InflateWait].Load()
			switch {
			case name == "ThinLock-compact":
				if n != 0 {
					t.Errorf("%d inflate events from compact monitors", n)
				}
			case strings.HasPrefix(name, "ThinLock") || strings.HasPrefix(name, "Biased"):
				if n == 0 {
					t.Error("no inflate event")
				}
			}
			snap := tel.Snapshot()
			if snap.Counter("slow_path_entries") == 0 || snap.Histograms["acquire_slow_ns"].Count == 0 {
				t.Errorf("telemetry slow_path_entries %d, acquire_slow_ns count %d; want both fed",
					snap.Counter("slow_path_entries"), snap.Histograms["acquire_slow_ns"].Count)
			}
		})
	}
}
