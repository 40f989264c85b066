package lockevent_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"thinlock/internal/biased"
	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// tally counts the events it receives, per kind.
type tally struct {
	n [lockevent.NumKinds]atomic.Int64
}

func (c *tally) LockEvent(k lockevent.Kind, _ *threading.Thread, _ *object.Object, _ int64) {
	c.n[k].Add(1)
}

func (c *tally) total() int64 {
	var n int64
	for k := range c.n {
		n += c.n[k].Load()
	}
	return n
}

func attach(t testing.TB, reg *threading.Registry, name string) *threading.Thread {
	t.Helper()
	th, err := reg.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// uncontended runs lock/unlock and a nested pair (the slow path) on o
// and reports the allocations per run.
func uncontended(t *testing.T, l lockapi.Locker, th *threading.Thread, o *object.Object) float64 {
	t.Helper()
	return testing.AllocsPerRun(100, func() {
		l.Lock(th, o)
		l.Lock(th, o)
		if err := l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
		if err := l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDisabledEmitCallsNoObserver: with nothing installed, or with an
// observer that consumes only the counted kinds (telemetry's set), the
// uncontended lock/unlock cycle calls no observer and allocates
// nothing. Not parallel: owns the global registration.
func TestDisabledEmitCallsNoObserver(t *testing.T) {
	reg := threading.NewRegistry()
	th := attach(t, reg, "solo")
	heap := object.NewHeap()
	lockers := []lockapi.Locker{core.NewDefault(), biased.NewDefault()}
	for _, l := range lockers {
		o := heap.New("Object")
		if got := uncontended(t, l, th, o); got != 0 {
			t.Errorf("%s: unobserved lock cycle allocates %.1f objects per run", l.Name(), got)
		}
	}

	c := new(tally)
	lockevent.Install(lockevent.SlotRecorder, c, lockevent.Counted)
	defer lockevent.Install(lockevent.SlotRecorder, nil, 0)
	for _, l := range lockers {
		o := heap.New("Object")
		l.Lock(th, o) // a biased reservation installs here, once
		if err := l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
		before := c.total()
		if got := testing.AllocsPerRun(100, func() {
			l.Lock(th, o)
			if err := l.Unlock(th, o); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: lock cycle allocates %.1f objects per run with counted kinds observed", l.Name(), got)
		}
		if n := c.total() - before - c.n[lockevent.BiasAcquire].Load(); n != 0 {
			t.Errorf("%s: uncontended cycle reached the observer %d times", l.Name(), n)
		}
	}
}

// TestEmitReachesOnlyConsumers: each observer receives exactly the
// kinds in its mask, and an emptied slot receives nothing.
func TestEmitReachesOnlyConsumers(t *testing.T) {
	a, b := new(tally), new(tally)
	lockevent.Install(lockevent.SlotTelemetry, a, lockevent.Of(lockevent.SlowEnter, lockevent.Spin))
	lockevent.Install(lockevent.SlotRecorder, b, lockevent.Of(lockevent.Spin, lockevent.Acquire))
	lockevent.Emit(lockevent.SlowEnter, nil, nil)
	lockevent.EmitValue(lockevent.Spin, nil, nil, int64(lockevent.WaitSpin))
	lockevent.Emit(lockevent.Acquire, nil, nil)
	lockevent.Emit(lockevent.Release, nil, nil)
	if !lockevent.Wants(lockevent.Acquire) || lockevent.Wants(lockevent.Release) {
		t.Error("Wants disagrees with the installed masks")
	}
	lockevent.Install(lockevent.SlotTelemetry, nil, 0)
	lockevent.Emit(lockevent.SlowEnter, nil, nil)
	lockevent.Install(lockevent.SlotRecorder, nil, 0)
	lockevent.Emit(lockevent.Acquire, nil, nil)
	if lockevent.Wants(lockevent.Acquire) {
		t.Error("Wants(Acquire) after every slot was emptied")
	}

	for k, want := range map[lockevent.Kind][2]int64{
		lockevent.SlowEnter: {1, 0},
		lockevent.Spin:      {1, 1},
		lockevent.Acquire:   {0, 1},
		lockevent.Release:   {0, 0},
	} {
		if got := [2]int64{a.n[k].Load(), b.n[k].Load()}; got != want {
			t.Errorf("kind %d reached the observers %v times, want %v", k, got, want)
		}
	}
}

// TestInstallRacesWithEmits swaps observers in and out while threads
// emit. Every event an observer receives must be one of its kinds. Run
// under -race this checks the read-copy-publish of the observer set.
func TestInstallRacesWithEmits(t *testing.T) {
	a, b := new(tally), new(tally)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				lockevent.Emit(lockevent.SlowEnter, nil, nil)
				lockevent.Emit(lockevent.Acquire, nil, nil)
				lockevent.EmitValue(lockevent.Unpark, nil, nil, 1)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		lockevent.Install(lockevent.SlotTelemetry, a, lockevent.Of(lockevent.SlowEnter))
		lockevent.Install(lockevent.SlotRecorder, b, lockevent.Of(lockevent.Acquire, lockevent.Unpark))
		lockevent.Install(lockevent.SlotTelemetry, nil, 0)
		lockevent.Install(lockevent.SlotRecorder, nil, 0)
	}
	stop.Store(true)
	wg.Wait()
	if a.n[lockevent.Acquire].Load()+a.n[lockevent.Unpark].Load() != 0 || b.n[lockevent.SlowEnter].Load() != 0 {
		t.Errorf("an observer received kinds outside its mask: a=%d/%d b=%d",
			a.n[lockevent.Acquire].Load(), a.n[lockevent.Unpark].Load(), b.n[lockevent.SlowEnter].Load())
	}
	before := a.total() + b.total()
	lockevent.Emit(lockevent.SlowEnter, nil, nil)
	lockevent.Emit(lockevent.Acquire, nil, nil)
	if after := a.total() + b.total(); after != before {
		t.Errorf("uninstalled observers still receive events")
	}
}

// siteRecorder captures the site of every Acquire the way lockprof and
// lockdep do: LockEvent calls a method that calls Capture.
type siteRecorder struct {
	mu    sync.Mutex
	sites []lockevent.Site
}

func (r *siteRecorder) LockEvent(_ lockevent.Kind, t *threading.Thread, _ *object.Object, _ int64) {
	r.record(t)
}

func (r *siteRecorder) record(t *threading.Thread) {
	s := lockevent.Capture(t, 0)
	r.mu.Lock()
	r.sites = append(r.sites, s)
	r.mu.Unlock()
}

// TestCaptureStartsAtTheEmitter: a Go site's first frame is the lock
// implementation's that emitted the event, its label names the frame
// that asked for the lock, and a published interpreter frame takes
// precedence.
func TestCaptureStartsAtTheEmitter(t *testing.T) {
	r := new(siteRecorder)
	lockevent.Install(lockevent.SlotRecorder, r, lockevent.Of(lockevent.Acquire))
	defer lockevent.Install(lockevent.SlotRecorder, nil, 0)
	th := attach(t, threading.NewRegistry(), "site")
	l := core.NewDefault()
	o := object.NewHeap().New("Object")

	l.Lock(th, o)
	th.PublishFrame("Demo.run", 7)
	l.Lock(th, o)
	th.ClearFrame()
	for i := 0; i < 2; i++ {
		if err := l.Unlock(th, o); err != nil {
			t.Fatal(err)
		}
	}

	if len(r.sites) != 2 {
		t.Fatalf("captured %d sites, want 2", len(r.sites))
	}
	goSite, vmSite := r.sites[0], r.sites[1]
	frames := goSite.Frames()
	if goSite.IsVM() || len(frames) < 2 {
		t.Fatalf("Go site = %+v, want a caller chain", frames)
	}
	if frames[0].Func != "thinlock/internal/core.(*ThinLocks).Lock" {
		t.Errorf("chain starts at %s, want the ThinLocks.Lock that emitted", frames[0].Func)
	}
	if label := lockevent.Label(frames); !strings.Contains(label, "TestCaptureStartsAtTheEmitter") {
		t.Errorf("label %q does not name the test", label)
	}
	if !vmSite.IsVM() || vmSite.VMMethod != "Demo.run" || vmSite.VMPC != 7 {
		t.Errorf("VM site = %+v, want Demo.run@7", vmSite)
	}
}
