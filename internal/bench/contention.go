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
// (§2.3.4) against the queued-inflation extension on the case the paper
// itself flags as pathological: "when an object is locked by one thread
// and not released for a long time, during which time other threads are
// spinning on the object".
//
// Each round uses a fresh object: the owner acquires it, holds it for
// holdTime, and releases; contenders attempt the lock for the whole
// window and the round ends when all of them have acquired once (the
// first of them inflates the lock).

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

// RunContentionPolicy measures one policy (queued=false is the paper's
// spinning) over the given number of rounds.
func RunContentionPolicy(queued bool, rounds, contenders int, holdTime time.Duration) (ContentionPolicyResult, error) {
	l := core.New(core.Options{QueuedInflation: queued})
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
	name := "spin"
	if queued {
		name = "queued"
	}
	return ContentionPolicyResult{
		Policy:     name,
		Elapsed:    elapsed,
		CPU:        cpu,
		SpinRounds: s.SpinRounds,
		Parks:      s.QueuedParks,
		Rounds:     rounds,
	}, nil
}

// RunContentionPolicyComparison runs both policies and returns
// (spin, queued).
func RunContentionPolicyComparison(rounds, contenders int, holdTime time.Duration) (spin, queued ContentionPolicyResult, err error) {
	spin, err = RunContentionPolicy(false, rounds, contenders, holdTime)
	if err != nil {
		return
	}
	queued, err = RunContentionPolicy(true, rounds, contenders, holdTime)
	return
}
