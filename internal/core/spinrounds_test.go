package core

import (
	"sync"
	"testing"
	"time"

	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/testutil"
	"thinlock/internal/threading"
)

// spinEvents counts thin-word spin pauses (Spin events with WaitSpin)
// per object.
type spinEvents struct {
	mu sync.Mutex
	n  map[*object.Object]uint64
}

func (s *spinEvents) LockEvent(k lockevent.Kind, _ *threading.Thread, o *object.Object, v int64) {
	if k != lockevent.Spin || v != int64(lockevent.WaitSpin) {
		return
	}
	s.mu.Lock()
	s.n[o]++
	s.mu.Unlock()
}

func (s *spinEvents) on(o *object.Object) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n[o]
}

// TestSpinRoundsExact: Stats().SpinRounds equals the thin-word spin
// pauses the contenders made, counted one Spin event at a time. Each
// configuration first contends on purpose: ThinLock and MP hold the
// lock until the contender has paused more than 80 times, past the 63
// at which arch.Backoff's round stops growing; compact monitors spin at
// most arch.SpinRounds times before they park. Then three threads race
// over two objects. The test is not parallel: its observer sees every
// thin spin in the process.
func TestSpinRoundsExact(t *testing.T) {
	ev := &spinEvents{n: make(map[*object.Object]uint64)}
	lockevent.Install(lockevent.SlotRecorder, ev, lockevent.Of(lockevent.Spin))
	t.Cleanup(func() { lockevent.Install(lockevent.SlotRecorder, nil, 0) })
	for _, tc := range []struct {
		name string
		opts Options
		hold uint64 // pauses to wait for before releasing the first hold
	}{
		{"ThinLock", Options{}, 80},
		{"MP", Options{Variant: VariantMPSync}, 80},
		{"Compact", Options{Compact: true}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.opts)
			objs := []*object.Object{f.heap.New("X"), f.heap.New("Y"), f.heap.New("Z")}
			a, b := f.thread(t), f.thread(t)
			f.l.Lock(a, objs[0])
			done := make(chan struct{})
			go func() {
				f.l.Lock(b, objs[0])
				if err := f.l.Unlock(b, objs[0]); err != nil {
					t.Error(err)
				}
				close(done)
			}()
			testutil.Eventually(t, 5*time.Second, "the contender's spin pauses", func() bool {
				return ev.on(objs[0]) > tc.hold
			})
			if err := f.l.Unlock(a, objs[0]); err != nil {
				t.Fatal(err)
			}
			<-done

			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				th := f.thread(t)
				wg.Add(1)
				go func(w int, th *threading.Thread) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						o := objs[1+(w+i)%2]
						f.l.Lock(th, o)
						for j := 0; j < 50; j++ {
							_ = o.Header()
						}
						if err := f.l.Unlock(th, o); err != nil {
							t.Error(err)
							return
						}
					}
				}(w, th)
			}
			wg.Wait()
			var events uint64
			for _, o := range objs {
				events += ev.on(o)
			}
			if got := f.l.Stats().SpinRounds; got != events {
				t.Fatalf("Stats().SpinRounds = %d, want the %d spin pauses observed", got, events)
			}
		})
	}
}
