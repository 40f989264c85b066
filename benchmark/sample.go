package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// workload is one seeded input family. build generates the input for a
// seed; scale multiplies its size (1 is the benchmark's size, tests use
// less). The input then runs any number of samples against any Locker.
type workload struct {
	name    string
	threads int
	build   func(seed uint64, scale float64) (input, error)
}

// input is a generated workload input. run executes it once in s and
// returns a checksum that depends only on the input, never on the
// implementation or the schedule.
type input interface {
	run(s *sample) (uint64, error)
}

var workloads = []workload{
	{name: "reacquire", threads: 1, build: buildReacquire},
	{name: "vm-fresh", threads: 1, build: buildVMFresh},
	{name: "contended", threads: 2, build: buildContended},
	{name: "monitor-churn", threads: 2, build: buildChurn},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sample is the world one run of an input executes in: a fresh Locker,
// heap and thread registry. locker is what the workload calls: the
// factory's own Locker when untraced, the timing decorator around it when
// traced (then tr is that decorator). keep holds the workload's state at
// the end of the run, so the retained-heap reading counts it.
type sample struct {
	locker lockapi.Locker
	heap   *object.Heap
	reg    *threading.Registry
	tr     *tracer
	keep   any
}

func newSample(l lockapi.Locker, tr *tracer) *sample {
	s := &sample{locker: l, heap: object.NewHeap(), reg: threading.NewRegistry()}
	if tr != nil {
		s.tr = tr.wrap(l)
		s.locker = s.tr
	}
	return s
}

// parallel runs body(i) for i in [0, n) on n freshly attached threads and
// waits for all of them. A panic in a body fails the sample instead of
// the process.
func (s *sample) parallel(n int, body func(t *threading.Thread, i int) error) error {
	errs := make([]error, n)
	dones := make([]<-chan struct{}, 0, n)
	for i := 0; i < n; i++ {
		done, err := s.reg.Go(fmt.Sprintf("worker-%d", i), func(t *threading.Thread) {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("worker %d panicked: %v", i, r)
				}
			}()
			if s.tr == nil {
				errs[i] = body(t, i)
				return
			}
			errs[i] = s.tr.threadBody(t, func() error { return body(t, i) })
		})
		if err != nil {
			return err
		}
		dones = append(dones, done)
	}
	for _, d := range dones {
		<-d
	}
	return errors.Join(errs...)
}

// begin and end bracket one call from the workload into a layer; they
// cost one branch each when untraced.
func (s *sample) begin(t *threading.Thread) spanStart {
	if s.tr == nil {
		return spanStart{}
	}
	return s.tr.begin(t)
}

func (s *sample) end(t *threading.Thread, l layer, st spanStart) {
	if s.tr != nil {
		s.tr.end(t, l, st)
	}
}

// untimed returns the Locker behind the decorator, for calls that are the
// benchmark's own checks rather than the workload's, so that traced
// counts stay those of the workload.
func (s *sample) untimed() lockapi.Locker {
	if s.tr != nil {
		return s.tr.inner
	}
	return s.locker
}

// released checks that t holds none of objs. A thread that owns an
// object's monitor may notify it and one that does not may not, so a
// successful Notify exposes a lock left held, e.g. by a lost Unlock.
func (s *sample) released(t *threading.Thread, objs ...*object.Object) error {
	l := s.untimed()
	for _, o := range objs {
		if l.Notify(t, o) == nil {
			return fmt.Errorf("%v still holds %v after the workload", t, o)
		}
	}
	return nil
}

// unlock releases o and turns a failure into a returned error.
func unlock(l lockapi.Locker, t *threading.Thread, o *object.Object) error {
	if err := l.Unlock(t, o); err != nil {
		return fmt.Errorf("unlock %v: %w", o, err)
	}
	return nil
}

// newRNG returns the generator for one workload's inputs: the seed picks
// the stream, the workload name keeps workloads' streams independent.
func newRNG(seed uint64, workload string) *rand.Rand {
	return rand.New(rand.NewPCG(seed, hashString(workload)))
}

// scaled sizes a count by scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// mix folds v into a running checksum (the splitmix64 finaliser).
func mix(sum, v uint64) uint64 {
	x := sum ^ (v + 0x9e3779b97f4a7c15 + sum<<6 + sum>>2)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
