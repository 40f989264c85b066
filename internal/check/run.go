package check

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thinlock/internal/biased"
	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/locktrace"
	"thinlock/internal/object"
	"thinlock/internal/reference"
	"thinlock/internal/threading"
)

// FailureKind classifies a checker finding.
type FailureKind int

const (
	// FailMutex is a mutual-exclusion violation: two threads inside the
	// same object's critical section, or a lost critical-section update.
	FailMutex FailureKind = iota
	// FailOutcome is an op whose success/error outcome diverged from the
	// statically expected one (ErrIllegalMonitorState disagreement).
	FailOutcome
	// FailStuck is a schedule that did not terminate before the
	// watchdog: a deadlock or lost wakeup.
	FailStuck
	// FailHistory is a per-object event-history invariant violation
	// (unbalanced nesting in the recorded trace).
	FailHistory
	// FailLeak is a monitor-table or final-lock-state leak detected
	// after quiescence.
	FailLeak
)

// String returns the failure-kind label.
func (k FailureKind) String() string {
	switch k {
	case FailMutex:
		return "mutual-exclusion"
	case FailOutcome:
		return "outcome-divergence"
	case FailStuck:
		return "stuck-schedule"
	case FailHistory:
		return "history-invariant"
	case FailLeak:
		return "quiescence-leak"
	default:
		return "unknown"
	}
}

// Failure is one invariant violation found by a run.
type Failure struct {
	Kind FailureKind
	Msg  string
}

// String implements fmt.Stringer.
func (f Failure) String() string { return f.Kind.String() + ": " + f.Msg }

// Config tunes one checker run.
type Config struct {
	// Schedule seeds the per-thread jitter injected between operations;
	// runs with the same program and schedule seed perturb thread
	// timing the same way.
	Schedule int64
	// Timeout is the watchdog bound for the whole program (default 20s).
	Timeout time.Duration
	// WaitTimeout is the duration passed to OpWait (default 1ms).
	WaitTimeout time.Duration
	// WorkDuration is the sleep performed by OpWork (default 2ms).
	WorkDuration time.Duration
	// SkipOracle disables the reference-oracle comparison run (used by
	// the oracle's own self-check).
	SkipOracle bool
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 20 * time.Second
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = time.Millisecond
	}
	if c.WorkDuration <= 0 {
		c.WorkDuration = 2 * time.Millisecond
	}
	return c
}

// Result is the observable outcome of executing a program under one
// implementation.
type Result struct {
	// Failures are the invariant violations found (empty = clean run).
	Failures []Failure
	// Outcomes[t][i] reports whether thread t's i-th op succeeded.
	// Valid only when the run was not stuck.
	Outcomes [][]bool
	// Events is the recorded per-object event history.
	Events []locktrace.Event
	// Stuck reports whether the watchdog fired.
	Stuck bool
}

// shadow is the harness's own view of one object's ownership, updated
// only at points where the implementation under test guarantees
// exclusivity. owner is the claiming thread index (0 = free); crit is a
// deliberately non-atomic counter bumped inside the critical section —
// if mutual exclusion is broken, updates are lost (detected by the
// final sum) and `go test -race` flags the write-write race directly.
type shadow struct {
	owner atomic.Int32
	crit  uint64
}

// Run executes p against the implementation built by mk, checking
// invariants as it goes. It is safe to call concurrently with itself
// (each call owns all its state).
func Run(mk func() lockapi.Locker, p Program, cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Outcomes: make([][]bool, len(p.Threads))}

	tr := locktrace.New(mk(), p.NumOps()*4+256)
	heap := object.NewHeap()
	objs := make([]*object.Object, p.Objects)
	for i := range objs {
		objs[i] = heap.New("chk")
	}
	reg := threading.NewRegistry()
	shadows := make([]shadow, p.Objects)

	var (
		mu       sync.Mutex // guards res.Failures
		locks    atomic.Uint64
		progress = make([]atomic.Int32, len(p.Threads))
		start    = make(chan struct{})
		wg       sync.WaitGroup
	)
	fail := func(kind FailureKind, format string, args ...any) {
		mu.Lock()
		res.Failures = append(res.Failures, Failure{kind, fmt.Sprintf(format, args...)})
		mu.Unlock()
	}

	exp := Expected(p)
	for ti := range p.Threads {
		ti := ti
		th, err := reg.Attach(fmt.Sprintf("chk%d", ti+1))
		if err != nil {
			fail(FailStuck, "attach: %v", err)
			return res
		}
		res.Outcomes[ti] = make([]bool, len(p.Threads[ti]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Schedule + int64(ti)*7919))
			tid := int32(th.Index())
			depth := make([]int, p.Objects)
			<-start
			for i, op := range p.Threads[ti] {
				progress[ti].Store(int32(i))
				// Seeded schedule jitter: perturb the interleaving so
				// different Schedule seeds explore different races.
				switch j := rng.Float64(); {
				case j < 0.30:
					runtime.Gosched()
				case j < 0.40:
					time.Sleep(time.Duration(rng.Intn(20)) * time.Microsecond)
				}
				ok := true
				switch op.Kind {
				case OpLock:
					tr.Lock(th, objs[op.Obj])
					locks.Add(1)
					sh := &shadows[op.Obj]
					if depth[op.Obj] == 0 {
						if prev := sh.owner.Swap(tid); prev != 0 {
							fail(FailMutex, "t%d acquired obj %d while t%d was inside (op %d)",
								tid, op.Obj, prev, i)
						}
					} else if cur := sh.owner.Load(); cur != tid {
						fail(FailMutex, "t%d nested-acquired obj %d but shadow owner is t%d (op %d)",
							tid, op.Obj, cur, i)
					}
					sh.crit++ // intentional plain write: exclusivity tripwire
					depth[op.Obj]++
				case OpUnlock:
					if depth[op.Obj] == 1 {
						// Clear the shadow before the implementation
						// releases, so the next owner finds it free.
						shadows[op.Obj].owner.CompareAndSwap(tid, 0)
					}
					err := tr.Unlock(th, objs[op.Obj])
					ok = err == nil
					if ok && depth[op.Obj] > 0 {
						depth[op.Obj]--
					}
				case OpWait:
					legal := depth[op.Obj] > 0
					if legal {
						shadows[op.Obj].owner.CompareAndSwap(tid, 0)
					}
					_, err := tr.Wait(th, objs[op.Obj], cfg.WaitTimeout)
					ok = err == nil
					if legal && ok {
						// The wait re-acquired the monitor before
						// returning; reclaim the shadow.
						if prev := shadows[op.Obj].owner.Swap(tid); prev != 0 {
							fail(FailMutex, "t%d returned from wait on obj %d while t%d was inside (op %d)",
								tid, op.Obj, prev, i)
						}
						shadows[op.Obj].crit++
					}
				case OpNotify:
					ok = tr.Notify(th, objs[op.Obj]) == nil
				case OpNotifyAll:
					ok = tr.NotifyAll(th, objs[op.Obj]) == nil
				case OpWork:
					time.Sleep(cfg.WorkDuration)
				}
				res.Outcomes[ti][i] = ok
				if ok != exp[ti][i] {
					fail(FailOutcome, "t%d op %d (%s): got success=%v, want %v",
						tid, i, op, ok, exp[ti][i])
				}
			}
			progress[ti].Store(int32(len(p.Threads[ti])))
			// Unwind whatever is still held so every clean run ends
			// quiescent; unwind releases must all succeed.
			for o := p.Objects - 1; o >= 0; o-- {
				for depth[o] > 0 {
					if depth[o] == 1 {
						shadows[o].owner.CompareAndSwap(tid, 0)
					}
					if err := tr.Unlock(th, objs[o]); err != nil {
						fail(FailOutcome, "t%d unwind unlock obj %d failed: %v", tid, o, err)
						break
					}
					depth[o]--
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(start)
	select {
	case <-done:
	case <-time.After(cfg.Timeout):
		res.Stuck = true
		var where []string
		for ti := range p.Threads {
			i := int(progress[ti].Load())
			if i < len(p.Threads[ti]) {
				where = append(where, fmt.Sprintf("t%d stuck at op %d (%s)", ti+1, i, p.Threads[ti][i]))
			}
		}
		fail(FailStuck, "watchdog after %v: %s", cfg.Timeout, joinOr(where, "all threads past their ops (unwind stuck)"))
		return res // goroutines are abandoned; their state is never read again
	}

	// Quiescence: every critical-section increment must have survived.
	var critTotal uint64
	for i := range shadows {
		if o := shadows[i].owner.Load(); o != 0 {
			fail(FailLeak, "obj %d shadow owner t%d after quiescence", i, o)
		}
		critTotal += shadows[i].crit
	}
	var waits uint64
	for _, e := range tr.Events() {
		if e.Kind == locktrace.EvWait && !e.Failed {
			waits++
		}
	}
	if want := locks.Load() + waits; critTotal != want {
		fail(FailMutex, "lost critical-section updates: crit=%d, want %d (mutual exclusion broken)",
			critTotal, want)
	}

	res.Events = tr.Events()
	for _, f := range checkHistory(res.Events) {
		res.Failures = append(res.Failures, f)
	}
	for _, f := range checkQuiescence(tr.Inner(), objs) {
		res.Failures = append(res.Failures, f)
	}
	return res
}

// checkQuiescence validates that the implementation reached a clean
// final state: no object still locked, no monitor left with an owner or
// occupied queues, no thread's node still filed on the parking lot, and
// (for thin locks) the monitor table accounts for exactly one monitor
// per inflation.
func checkQuiescence(l lockapi.Locker, objs []*object.Object) []Failure {
	var fs []Failure
	switch impl := l.(type) {
	case *core.ThinLocks:
		for i, o := range objs {
			if n := threading.Parked(o); n != 0 {
				fs = append(fs, Failure{FailLeak,
					fmt.Sprintf("obj %d has %d nodes filed on the parking lot after run", i, n)})
			}
			if m := impl.Monitor(o); m != nil {
				if !m.Quiescent() {
					fs = append(fs, Failure{FailLeak,
						fmt.Sprintf("obj %d monitor not quiescent after run: %v", i, m)})
				}
			} else if hi := impl.HolderIndex(o); hi != 0 {
				fs = append(fs, Failure{FailLeak,
					fmt.Sprintf("obj %d still thin-locked by t%d after run", i, hi)})
			}
		}
		if s := impl.Stats(); uint64(s.FatLocks) != s.Inflations() {
			fs = append(fs, Failure{FailLeak,
				fmt.Sprintf("monitor table holds %d monitors for %d inflations", s.FatLocks, s.Inflations())})
		}
	case *biased.Locker:
		for i, o := range objs {
			if m := impl.Monitor(o); m != nil {
				if !m.Quiescent() {
					fs = append(fs, Failure{FailLeak,
						fmt.Sprintf("obj %d monitor not quiescent after run: %v", i, m)})
				}
			} else if hi := impl.HolderIndex(o); hi != 0 {
				fs = append(fs, Failure{FailLeak,
					fmt.Sprintf("obj %d still thin-locked by t%d after run", i, hi)})
			} else if core.IsBiasRevoking(o.Header()) {
				fs = append(fs, Failure{FailLeak,
					fmt.Sprintf("obj %d stuck in revocation sentinel after run", i)})
			}
			// A plain biased header is fine: an unheld reservation is not
			// a lock, and a held one would have tripped the shadow-owner
			// check above.
		}
		if s := impl.Stats(); uint64(s.FatLocks) != s.Inflations() {
			fs = append(fs, Failure{FailLeak,
				fmt.Sprintf("monitor table holds %d monitors for %d inflations", s.FatLocks, s.Inflations())})
		}
	case *reference.Locker:
		for i, o := range objs {
			if impl.Owner(o) != 0 || impl.Count(o) != 0 {
				fs = append(fs, Failure{FailLeak,
					fmt.Sprintf("obj %d oracle state owner=%d count=%d after run", i, impl.Owner(o), impl.Count(o))})
			}
		}
	}
	return fs
}

// joinOr renders ss separated by "; ", or fallback when empty.
func joinOr(ss []string, fallback string) string {
	if len(ss) == 0 {
		return fallback
	}
	out := ss[0]
	for _, s := range ss[1:] {
		out += "; " + s
	}
	return out
}

// CheckProgram runs p under the implementation built by mk and, unless
// disabled, under the reference oracle, and returns every invariant
// violation found, including any op whose outcome disagrees between the
// implementation and the oracle.
func CheckProgram(mk func() lockapi.Locker, p Program, cfg Config) []Failure {
	res := Run(mk, p, cfg)
	fs := res.Failures
	if res.Stuck || cfg.SkipOracle {
		return fs
	}
	oracle := Run(func() lockapi.Locker { return reference.New() }, p, Config{
		Schedule:     cfg.Schedule,
		Timeout:      cfg.Timeout,
		WaitTimeout:  cfg.WaitTimeout,
		WorkDuration: cfg.WorkDuration,
	})
	if oracle.Stuck {
		fs = append(fs, Failure{FailStuck, "reference oracle run stuck (harness bug?)"})
		return fs
	}
	for ti := range p.Threads {
		for i := range p.Threads[ti] {
			if res.Outcomes[ti][i] != oracle.Outcomes[ti][i] {
				fs = append(fs, Failure{FailOutcome,
					fmt.Sprintf("t%d op %d (%s): implementation success=%v, oracle success=%v",
						ti+1, i, p.Threads[ti][i], res.Outcomes[ti][i], oracle.Outcomes[ti][i])})
			}
		}
	}
	return fs
}
