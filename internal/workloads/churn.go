package workloads

import (
	"fmt"

	"thinlock/internal/jcl"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// churnWorkers is the fixed worker-thread count of the churn workload.
// The rendezvous barrier below is written for exactly two parties.
const churnWorkers = 2

// churnPhases is the number of allocate-use-abandon generations.
const churnPhases = 8

// churnShareEvery spaces the shared rendezvous objects: every 16th
// private object, each worker also crosses a barrier on a shared object,
// which inflates it (the first arriver waits).
const churnShareEvery = 16

// runChurn is the monitor-lifecycle stress that compact monitors
// exist for: two workers burn through generations of short-lived
// objects — at DefaultSize over ten million of them — locking each once
// and abandoning the whole generation at the phase boundary. Every
// churnShareEvery-th step the workers additionally rendezvous on a
// shared object whose barrier forces a wait, and under the paper's
// protocol waiting inflates, so each phase also inflates and abandons
// thousands of monitors.
//
// Under the paper's baseline implementations the monitor table (or
// monitor cache) footprint grows with every inflated object ever seen;
// compact monitors park the waiter on the lot instead and allocate no
// monitor at all. The churn stress test and the EXPERIMENTS churn table
// assert and report exactly that contrast.
//
// Determinism: worker w folds a pure function of (phase, step) into its
// own sums[w] slot; phases join before the next spawns, and the final
// checksum folds the two slots in a fixed order, so the result is
// independent of schedule and implementation. The barrier itself is a
// classic condition-variable handshake (set own flag, notify, wait for
// the partner's flag under the lock), so no wakeup can be lost.
func runChurn(ctx *jcl.Context, t *threading.Thread, size int) uint64 {
	l := ctx.Locker()
	heap := ctx.Heap()

	// Private objects per worker per phase; one shared barrier object
	// per churnShareEvery of them.
	perWorker := 1250 * size
	shared := perWorker / churnShareEvery
	if shared < 1 {
		shared = 1
	}

	sums := make([]uint64, churnWorkers)
	reg := t.Registry()
	for phase := 0; phase < churnPhases; phase++ {
		// A fresh working set per phase; the previous generation is
		// abandoned wholesale, monitors and all.
		barriers := make([]*object.Object, shared)
		arrived := make([][churnWorkers]bool, shared)
		for i := range barriers {
			barriers[i] = heap.New("Object")
		}

		dones := make([]<-chan struct{}, 0, churnWorkers)
		for w := 0; w < churnWorkers; w++ {
			w, phase := w, phase
			done, err := reg.Go(fmt.Sprintf("churn-%d-%d", phase, w), func(wt *threading.Thread) {
				for i := 0; i < perWorker; i++ {
					o := heap.New("Object")
					lockapi.Synchronized(l, wt, o, func() {
						sums[w] = mix(sums[w], uint64(phase)<<32|uint64(i))
					})
					if i%churnShareEvery == churnShareEvery-1 {
						j := (i / churnShareEvery) % shared
						churnBarrier(l, wt, barriers[j], &arrived[j], w)
						sums[w] = mix(sums[w], uint64(j))
					}
				}
			})
			if err != nil {
				panic(fmt.Sprintf("workloads: churn attach: %v", err))
			}
			dones = append(dones, done)
		}
		for _, done := range dones {
			<-done
		}
	}

	sum := uint64(churnWorkers)
	for _, s := range sums {
		sum = mix(sum, s)
	}
	return sum
}

// churnBarrier is a two-party rendezvous on o: worker w records its
// arrival, wakes a possibly-waiting partner, and waits until the partner
// has arrived too. The first arriver always waits, so every barrier
// object's lock inflates exactly once (compact monitors: files one
// waiter on the lot).
func churnBarrier(l lockapi.Locker, wt *threading.Thread, o *object.Object, arrived *[churnWorkers]bool, w int) {
	lockapi.Synchronized(l, wt, o, func() {
		arrived[w] = true
		if err := l.NotifyAll(wt, o); err != nil {
			panic(fmt.Sprintf("workloads: churn notify: %v", err))
		}
		for !arrived[1-w] {
			if _, err := l.Wait(wt, o, 0); err != nil {
				panic(fmt.Sprintf("workloads: churn wait: %v", err))
			}
		}
	})
}
