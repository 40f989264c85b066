package bench

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ContentionPolicy compares the paper's spin-with-back-off inflation
// (§2.3.4) against compact monitors on the case the paper itself flags
// as pathological: "when an object is locked by one thread and not
// released for a long time, during which time other threads are
// spinning on the object".
//
// Each round uses a fresh object: the owner acquires it, holds it for
// holdTime, and releases; contenders attempt the lock for the whole
// window and the round ends when all of them have acquired once (under
// spin, the first of them inflates the lock; compact monitors spin
// their thread's adaptive budget, park on the lot and inflate nothing).

// ContentionPolicies names the compared policies, in report order.
var ContentionPolicies = []string{"spin", "compact"}

// policyOptions maps a policy name to its thin-lock configuration.
func policyOptions(policy string) (core.Options, bool) {
	switch policy {
	case "spin":
		return core.Options{}, true
	case "compact":
		return core.Options{Compact: true}, true
	}
	return core.Options{}, false
}

// ContentionPolicyResult reports one policy's behaviour over one run,
// or the summary of several (RunContentionPolicyComparison).
type ContentionPolicyResult struct {
	Policy  string
	Elapsed time.Duration
	// CPU is the process's user plus system CPU time over the run.
	// Elapsed alone cannot tell a spinning wait from a parked one.
	// CPUMin and CPUMax bound it over the runs.
	CPU, CPUMin, CPUMax time.Duration
	SpinRounds          uint64
	Parks               uint64
}

// String renders the result for reports.
func (r ContentionPolicyResult) String() string {
	return fmt.Sprintf("%-7s %12v  cpu=%-12v (%v–%v)  spin-pauses=%-9d parks=%d",
		r.Policy, r.Elapsed.Round(time.Microsecond), r.CPU.Round(time.Microsecond),
		r.CPUMin.Round(time.Microsecond), r.CPUMax.Round(time.Microsecond), r.SpinRounds, r.Parks)
}

// RunContentionPolicy measures one policy, named as in
// ContentionPolicies ("spin" is the paper's), over the given number of
// rounds.
func RunContentionPolicy(policy string, rounds, contenders int, holdTime time.Duration) (ContentionPolicyResult, error) {
	opts, ok := policyOptions(policy)
	if !ok {
		return ContentionPolicyResult{}, fmt.Errorf("bench: unknown contention policy %q", policy)
	}
	l := core.New(opts)
	heap := object.NewHeap()
	reg := threading.NewRegistry()
	owner, err := reg.Attach("owner")
	if err != nil {
		return ContentionPolicyResult{}, err
	}
	ths := make([]*threading.Thread, contenders)
	for i := range ths {
		if ths[i], err = reg.Attach("contender"); err != nil {
			return ContentionPolicyResult{}, err
		}
	}

	start, cpu := time.Now(), processCPU()
	for r := 0; r < rounds; r++ {
		o := heap.New("X")
		l.Lock(owner, o)
		var wg sync.WaitGroup
		for _, th := range ths {
			th := th
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Lock(th, o)
				if err := l.Unlock(th, o); err != nil {
					panic(err)
				}
			}()
		}
		time.Sleep(holdTime) // the long hold the paper warns about
		if err := l.Unlock(owner, o); err != nil {
			return ContentionPolicyResult{}, err
		}
		wg.Wait()
	}
	elapsed, cpu := time.Since(start), processCPU()-cpu

	s := l.Stats()
	return ContentionPolicyResult{
		Policy:     policy,
		Elapsed:    elapsed,
		CPU:        cpu,
		CPUMin:     cpu,
		CPUMax:     cpu,
		SpinRounds: s.SpinRounds,
		Parks:      s.QueuedParks,
	}, nil
}

// RunContentionPolicyComparison runs every policy in ContentionPolicies
// samples times and reports, per policy in that order, its median run
// by CPU time with the CPU time's range and the median wall time. The
// policies alternate run by run, so a drift in the host's speed reaches
// each of them alike.
func RunContentionPolicyComparison(rounds, contenders int, holdTime time.Duration, samples int) ([]ContentionPolicyResult, error) {
	runs := make([][]ContentionPolicyResult, len(ContentionPolicies))
	for range max(samples, 1) {
		for i, p := range ContentionPolicies {
			r, err := RunContentionPolicy(p, rounds, contenders, holdTime)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], r)
		}
	}
	out := make([]ContentionPolicyResult, len(runs))
	for i, rs := range runs {
		mid := len(rs) / 2
		slices.SortFunc(rs, func(a, b ContentionPolicyResult) int { return cmp.Compare(a.CPU, b.CPU) })
		out[i] = rs[mid]
		out[i].CPUMin, out[i].CPUMax = rs[0].CPU, rs[len(rs)-1].CPU
		slices.SortFunc(rs, func(a, b ContentionPolicyResult) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
		out[i].Elapsed = rs[mid].Elapsed
	}
	return out, nil
}
