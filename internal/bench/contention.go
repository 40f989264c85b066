package bench

import (
	"fmt"
	"sync"
	"time"

	"thinlock/internal/core"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// ContentionPolicy compares the paper's spin-with-back-off inflation
// (§2.3.4) against the queued-inflation extension and compact monitors
// on the case the paper itself flags as pathological: "when an object
// is locked by one thread and not released for a long time, during
// which time other threads are spinning on the object".
//
// Each round uses a fresh object: the owner acquires it, holds it for
// holdTime, and releases; contenders attempt the lock for the whole
// window and the round ends when all of them have acquired once (under
// spin and queued, the first of them inflates the lock; compact
// monitors inflate nothing).

// ContentionPolicies names the compared policies, in report order.
var ContentionPolicies = []string{"spin", "queued", "compact"}

// policyOptions maps a policy name to its thin-lock configuration.
func policyOptions(policy string) (core.Options, bool) {
	switch policy {
	case "spin":
		return core.Options{}, true
	case "queued":
		return core.Options{QueuedInflation: true}, true
	case "compact":
		return core.Options{Compact: true}, true
	}
	return core.Options{}, false
}

// ContentionPolicyResult reports one policy's behaviour.
type ContentionPolicyResult struct {
	Policy  string
	Elapsed time.Duration
	// CPU is the process's user plus system CPU time over the run.
	// Elapsed alone cannot tell a spinning wait from a parked one.
	CPU        time.Duration
	SpinRounds uint64
	Parks      uint64
	Rounds     int
}

// String renders the result for reports.
func (r ContentionPolicyResult) String() string {
	return fmt.Sprintf("%-7s %12v  cpu=%-12v spin-pauses=%-9d parks=%d",
		r.Policy, r.Elapsed.Round(time.Microsecond), r.CPU.Round(time.Microsecond), r.SpinRounds, r.Parks)
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
		SpinRounds: s.SpinRounds,
		Parks:      s.QueuedParks,
		Rounds:     rounds,
	}, nil
}

// RunContentionPolicyComparison runs every policy in ContentionPolicies
// order.
func RunContentionPolicyComparison(rounds, contenders int, holdTime time.Duration) ([]ContentionPolicyResult, error) {
	out := make([]ContentionPolicyResult, 0, len(ContentionPolicies))
	for _, p := range ContentionPolicies {
		r, err := RunContentionPolicy(p, rounds, contenders, holdTime)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
