// Package check is the concurrent differential-testing subsystem: it
// generates multi-threaded lock/unlock/wait/notify programs over small
// thread×object sets, executes them under any lockapi.Locker while
// recording per-object event histories, and validates invariants on the
// result: mutual exclusion, balanced nesting, ErrIllegalMonitorState
// agreement with the reference oracle, and monitor-table leak-freedom
// after quiescence. A companion small-scope explorer (explore.go)
// enumerates *all* interleavings of tiny programs against an abstract
// lock-word state machine, so the thin-lock transition table itself is
// model-checked rather than sampled.
//
// The single-threaded differential tests in internal/reference cover the
// easy half of the paper's claim (identical observable behaviour on one
// thread); this package covers the half where lock-word protocols
// actually break: contended inflation, wait/notify handoff and parking-
// lot races in rare interleavings.
package check

import (
	"fmt"
	"math/rand"
	"strings"
)

// OpKind is one kind of program step.
type OpKind int

const (
	// OpLock acquires the object's monitor (always succeeds).
	OpLock OpKind = iota
	// OpUnlock releases one level (fails when not held).
	OpUnlock
	// OpWait is a short timed wait (fails when not held).
	OpWait
	// OpNotify wakes one waiter (fails when not held).
	OpNotify
	// OpNotifyAll wakes all waiters (fails when not held).
	OpNotifyAll
	// OpWork simulates critical-section (or think-time) work: a short
	// sleep that widens race windows and lengthens hold times.
	OpWork
)

// String returns the op-kind label used in printed schedules.
func (k OpKind) String() string {
	switch k {
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpWait:
		return "wait"
	case OpNotify:
		return "notify"
	case OpNotifyAll:
		return "notifyAll"
	case OpWork:
		return "work"
	default:
		return "unknown"
	}
}

// Op is one step of one thread's program.
type Op struct {
	Kind OpKind
	Obj  int // ignored for OpWork
}

// String renders one op.
func (op Op) String() string {
	if op.Kind == OpWork {
		return "work"
	}
	return fmt.Sprintf("%s(%d)", op.Kind, op.Obj)
}

// Program is a deterministic multi-threaded lock program: thread i runs
// Threads[i] in order. Programs produced by Generate are deadlock-free
// by construction (see the generator's discipline), so any run that
// fails to terminate indicates a lost wakeup or a corrupted lock word,
// not a harness artifact.
type Program struct {
	Threads [][]Op
	Objects int
}

// NumOps returns the total operation count.
func (p Program) NumOps() int {
	n := 0
	for _, ops := range p.Threads {
		n += len(ops)
	}
	return n
}

// String renders the program in the form printed for failing schedules.
func (p Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objects=%d threads=%d\n", p.Objects, len(p.Threads))
	for i, ops := range p.Threads {
		fmt.Fprintf(&b, "  t%d:", i+1)
		for _, op := range ops {
			b.WriteByte(' ')
			b.WriteString(op.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// clone deep-copies the program (the minimizer mutates copies).
func (p Program) clone() Program {
	q := Program{Objects: p.Objects, Threads: make([][]Op, len(p.Threads))}
	for i, ops := range p.Threads {
		q.Threads[i] = append([]Op(nil), ops...)
	}
	return q
}

// Generate produces a random program of the given shape. The generator
// follows a discipline that makes every program deadlock-free while
// still exercising all the interesting transitions:
//
//   - a thread may only acquire an object whose index is >= every object
//     it already holds (ordered acquisition kills lock-order cycles);
//     re-acquiring a held object (nesting) is always allowed, with a
//     bias toward deep nesting so count-overflow inflation is reached;
//   - a thread only waits on an object when it is the only object it
//     holds, so the re-acquisition after the wait cannot participate in
//     a cycle either; waits are short and timed, so a missing notify is
//     a timeout, not a hang;
//   - with small probability the generator emits deliberately illegal
//     operations (unlock/wait/notify of an unheld object), whose
//     ErrIllegalMonitorState outcome every implementation must agree on.
//
// Because legality of each op depends only on the issuing thread's own
// history, the success/error outcome of every operation is schedule
// independent and statically known: see Expected.
func Generate(rng *rand.Rand, threads, objects, opsPerThread int) Program {
	p := Program{Objects: objects, Threads: make([][]Op, threads)}
	for ti := 0; ti < threads; ti++ {
		depth := make([]int, objects)
		var ops []Op
		held := func() (n, only, max int) {
			only, max = -1, -1
			for o, d := range depth {
				if d > 0 {
					n++
					only = o
					max = o
				}
			}
			return
		}
		for len(ops) < opsPerThread {
			nHeld, soleObj, maxObj := held()
			o := rng.Intn(objects)
			switch r := rng.Float64(); {
			case r < 0.40: // acquire
				if nHeld > 0 && rng.Float64() < 0.55 {
					// Bias toward re-acquiring a held object: nesting
					// is what drives the count field toward overflow.
					o = soleObj
					for tries := 0; depth[o] == 0 && tries < 4; tries++ {
						o = rng.Intn(objects)
					}
					if depth[o] == 0 {
						o = maxObj
					}
				} else if o < maxObj {
					o = maxObj // ordered acquisition
				}
				ops = append(ops, Op{OpLock, o})
				depth[o]++
			case r < 0.75: // release (legal when possible)
				if depth[o] == 0 {
					if nHeld > 0 {
						o = maxObj
					} else if rng.Float64() > 0.25 {
						continue // only sometimes emit the illegal unlock
					}
				}
				ops = append(ops, Op{OpUnlock, o})
				if depth[o] > 0 {
					depth[o]--
				}
			case r < 0.83: // wait
				if nHeld == 1 && depth[o] == 0 {
					o = soleObj
				}
				legal := nHeld == 1 && depth[o] > 0
				if !legal && depth[o] > 0 {
					continue // would hold >1 object across the wait
				}
				if legal || rng.Float64() < 0.35 {
					ops = append(ops, Op{OpWait, o})
				}
			case r < 0.95: // notify / notifyAll
				if depth[o] == 0 && nHeld > 0 {
					o = maxObj
				}
				kind := OpNotify
				if rng.Float64() < 0.4 {
					kind = OpNotifyAll
				}
				ops = append(ops, Op{kind, o})
			default:
				ops = append(ops, Op{Kind: OpWork})
			}
		}
		p.Threads[ti] = ops
	}
	return p
}

// Expected computes, per thread and op, whether the op must succeed
// (true) or must return ErrIllegalMonitorState (false), by abstract
// interpretation of each thread's own program. The result is schedule
// independent: Lock always succeeds (it blocks rather than fails), Work
// always succeeds, and the error cases of Unlock/Wait/Notify/NotifyAll
// depend only on the nesting depth the issuing thread has built up,
// which no other thread can alter.
func Expected(p Program) [][]bool {
	exp := make([][]bool, len(p.Threads))
	for ti, ops := range p.Threads {
		depth := make([]int, p.Objects)
		exp[ti] = make([]bool, len(ops))
		for i, op := range ops {
			switch op.Kind {
			case OpLock, OpWork:
				exp[ti][i] = true
				if op.Kind == OpLock {
					depth[op.Obj]++
				}
			case OpUnlock:
				exp[ti][i] = depth[op.Obj] > 0
				if depth[op.Obj] > 0 {
					depth[op.Obj]--
				}
			case OpWait, OpNotify, OpNotifyAll:
				exp[ti][i] = depth[op.Obj] > 0
			}
		}
	}
	return exp
}
