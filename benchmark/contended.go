package main

import (
	"runtime"

	"thinlock/internal/hotlocks"
	"thinlock/internal/jcl"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// The contended workload: two workers transfer amounts between four
// long-lived accounts (the bankmt shape, capped at two threads). Each
// account's balance sits at index 0 of a jcl Vector guarded by a plain
// object; a transfer is a withdrawal and a deposit in two separate
// critical sections, so no worker ever holds two guards. Seeded yields
// inside critical sections model a thread descheduled while holding a
// lock, which makes contention reproducible even on one CPU. Additions
// commute, so the final balances, and the checksum, do not depend on the
// schedule.
const (
	contendTransfers = 60_000 // per worker per sample
	contendAccounts  = 4
	contendWorkers   = 2
	contendYieldOdds = 8 // a critical section yields with probability 1/8
)

type transfer struct {
	src, dst           uint8
	yieldSrc, yieldDst bool
	amount             int32
}

type contendInput struct {
	streams [contendWorkers][]transfer
}

func buildContended(seed uint64, scale float64) (input, error) {
	rng := newRNG(seed, "contended")
	in := &contendInput{}
	n := scaled(contendTransfers, scale, 16)
	for w := range in.streams {
		in.streams[w] = make([]transfer, n)
		for i := range in.streams[w] {
			in.streams[w][i] = transfer{
				src:      uint8(rng.IntN(contendAccounts)),
				dst:      uint8(rng.IntN(contendAccounts)),
				yieldSrc: rng.IntN(contendYieldOdds) == 0,
				yieldDst: rng.IntN(contendYieldOdds) == 0,
				amount:   int32(1 + rng.IntN(100)),
			}
		}
	}
	return in, nil
}

func (in *contendInput) run(s *sample) (uint64, error) {
	ctx := jcl.NewContext(s.locker, s.heap)
	var (
		accounts [contendAccounts]*jcl.Vector
		guards   [contendAccounts]*object.Object
	)
	setup, err := s.reg.Attach("setup")
	if err != nil {
		return 0, err
	}
	defer s.reg.Detach(setup)
	for i := range accounts {
		accounts[i] = ctx.NewVectorWithCapacity(1)
		accounts[i].AddElement(setup, int64(1000*(i+1)))
		guards[i] = s.heap.New("Guard")
		// IBM112 promotes a lock to a hot lock on its DefaultThreshold-th
		// acquisition, and that promotion is not safe against a thread
		// acquiring the same object for the first time concurrently: the
		// promoter drops the cold entry before it publishes the hot
		// header, so the newcomer can bind a second monitor and enter it.
		// Under IBM112 only, promote the guards here, before the workers
		// contend for them, outside the op count. Delete this loop once
		// internal/hotlocks publishes the hot header before it drops the
		// cold entry.
		l, ok := s.untimed().(*hotlocks.HotLocks)
		for j := 0; ok && j < hotlocks.DefaultThreshold; j++ {
			l.Lock(setup, guards[i])
			if err := unlock(l, setup, guards[i]); err != nil {
				return 0, err
			}
		}
	}

	err = s.parallel(contendWorkers, func(t *threading.Thread, w int) error {
		for _, tr := range in.streams[w] {
			if err := move(s, t, guards[tr.src], accounts[tr.src], -int64(tr.amount), tr.yieldSrc); err != nil {
				return err
			}
			if err := move(s, t, guards[tr.dst], accounts[tr.dst], int64(tr.amount), tr.yieldDst); err != nil {
				return err
			}
		}
		return s.released(t, guards[:]...)
	})
	if err != nil {
		return 0, err
	}
	s.keep = []any{accounts, guards}
	var sum uint64
	for _, a := range accounts {
		sum = mix(sum, uint64(a.ElementAt(setup, 0).(int64)))
	}
	return sum, nil
}

// move adds delta to an account's balance under its guard.
func move(s *sample, t *threading.Thread, guard *object.Object, acct *jcl.Vector, delta int64, yield bool) error {
	s.locker.Lock(t, guard)
	sp := s.begin(t)
	bal := acct.ElementAt(t, 0).(int64)
	s.end(t, layerJCL, sp)
	if yield {
		runtime.Gosched()
	}
	sp = s.begin(t)
	acct.SetElementAt(t, bal+delta, 0)
	s.end(t, layerJCL, sp)
	return unlock(s.locker, t, guard)
}
