package main

import (
	"runtime"

	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// The monitor-churn workload: two workers lock short-lived objects once
// each, generation after generation. After every churnShareEvery private
// objects both workers cross a two-party wait/notify barrier on a shared
// object, which inflates it (the first to arrive waits); the barrier
// object is then abandoned with the rest of its generation. It exercises
// the monitor lifecycle: table allocation, deflation, index recycling and
// wait/notify handoff. The seed picks the payloads folded into the
// checksum, the order in which both workers visit a generation's
// barriers, and the yield points inside private critical sections.
const (
	churnObjects     = 144_000 // private objects per worker per sample
	churnGenerations = 8
	churnShareEvery  = 16
	churnWorkers     = 2
	churnYieldOdds   = 64
)

type churnStep struct {
	payload uint32
	yield   bool
}

type churnInput struct {
	perGen int
	// order[g] lists generation g's barrier indices in visiting order.
	order [churnGenerations][]uint32
	steps [churnWorkers][]churnStep
}

func buildChurn(seed uint64, scale float64) (input, error) {
	rng := newRNG(seed, "monitor-churn")
	in := &churnInput{perGen: scaled(churnObjects/churnGenerations, scale, churnShareEvery)}
	for g := range in.order {
		in.order[g] = make([]uint32, in.perGen/churnShareEvery)
		for i, j := range rng.Perm(len(in.order[g])) {
			in.order[g][i] = uint32(j)
		}
	}
	for w := range in.steps {
		in.steps[w] = make([]churnStep, in.perGen*churnGenerations)
		for i := range in.steps[w] {
			in.steps[w][i] = churnStep{payload: rng.Uint32(), yield: rng.IntN(churnYieldOdds) == 0}
		}
	}
	return in, nil
}

func (in *churnInput) run(s *sample) (uint64, error) {
	var sums [churnWorkers]uint64
	for g := range in.order {
		barriers := make([]*object.Object, len(in.order[g]))
		arrived := make([][churnWorkers]bool, len(barriers))
		for i := range barriers {
			barriers[i] = s.heap.New("Barrier")
		}
		err := s.parallel(churnWorkers, func(t *threading.Thread, w int) error {
			steps := in.steps[w][g*in.perGen : (g+1)*in.perGen]
			for i, st := range steps {
				o := s.heap.New("Object")
				s.locker.Lock(t, o)
				sums[w] = mix(sums[w], uint64(st.payload))
				if st.yield {
					runtime.Gosched()
				}
				if err := unlock(s.locker, t, o); err != nil {
					return err
				}
				if i%churnShareEvery == churnShareEvery-1 {
					j := in.order[g][i/churnShareEvery]
					if err := rendezvous(s.locker, t, barriers[j], &arrived[j], w); err != nil {
						return err
					}
					sums[w] = mix(sums[w], uint64(j))
				}
			}
			return s.released(t, barriers...)
		})
		if err != nil {
			return 0, err
		}
		s.keep = barriers
	}
	var sum uint64
	for _, v := range sums {
		sum = mix(sum, v)
	}
	return sum, nil
}

// rendezvous is a two-party barrier on o: worker w records its arrival,
// wakes a waiting partner and waits until the partner has arrived too.
// The flags are read and written only under o's monitor.
func rendezvous(l lockapi.Locker, t *threading.Thread, o *object.Object, arrived *[churnWorkers]bool, w int) error {
	l.Lock(t, o)
	arrived[w] = true
	err := l.NotifyAll(t, o)
	for err == nil && !arrived[1-w] {
		_, err = l.Wait(t, o, 0)
	}
	if uerr := unlock(l, t, o); err == nil {
		err = uerr
	}
	return err
}
