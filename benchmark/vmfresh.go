package main

import (
	_ "embed"
	"fmt"

	"thinlock/internal/core"
	"thinlock/internal/minijava"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

// The vm-fresh workload: one thread runs the compiled vmfresh.mj program,
// one vm.Run call per seeded step. Every step allocates a fresh object
// and locks it 1–8 times, so interpreter dispatch and first acquisition
// (bias install included) dominate. The host keeps a live set of
// vmLive objects, larger than IBM112's 32 hot locks and JDK111's
// 128-monitor pool; each step locks one seeded member once, and a seeded
// half of the steps first replace that member with a fresh object.
const (
	vmSteps = 33_000 // vm.Run calls per sample
	vmLive  = 512
)

//go:embed vmfresh.mj
var vmSource string

type vmStep struct {
	slot    uint16
	reps    uint8
	replace bool
	k       int32
}

type vmInput struct {
	prog  *vm.Program
	steps []vmStep
}

func buildVMFresh(seed uint64, scale float64) (input, error) {
	prog, err := minijava.Compile(vmSource)
	if err != nil {
		return nil, fmt.Errorf("compile vmfresh.mj: %w", err)
	}
	// vm.New verifies every method; doing it once here makes a program
	// that fails verification a set-up error rather than a failed sample.
	if _, err := vm.New(prog, core.NewDefault(), object.NewHeap()); err != nil {
		return nil, err
	}
	rng := newRNG(seed, "vm-fresh")
	steps := make([]vmStep, scaled(vmSteps, scale, 16))
	for i := range steps {
		steps[i] = vmStep{
			slot:    uint16(rng.IntN(vmLive)),
			reps:    uint8(1 + rng.IntN(8)),
			replace: rng.IntN(2) == 0,
			k:       int32(rng.IntN(1000)),
		}
	}
	return &vmInput{prog: prog, steps: steps}, nil
}

func (in *vmInput) run(s *sample) (uint64, error) {
	machine, err := vm.New(in.prog, s.locker, s.heap)
	if err != nil {
		return 0, err
	}
	var sum uint64
	err = s.parallel(1, func(t *threading.Thread, _ int) error {
		var err error
		sum, err = in.drive(s, machine, t)
		return err
	})
	return sum, err
}

func (in *vmInput) drive(s *sample, machine *vm.VM, t *threading.Thread) (uint64, error) {
	live := make([]*vm.Obj, vmLive)
	for i := range live {
		o, err := machine.NewInstance("Cell")
		if err != nil {
			return 0, err
		}
		live[i] = o
	}
	var sum uint64
	for _, st := range in.steps {
		if st.replace {
			o, err := machine.NewInstance("Cell")
			if err != nil {
				return 0, err
			}
			live[st.slot] = o
		}
		sp := s.begin(t)
		res, err := machine.Run(t, "step", vm.RefValue(live[st.slot]), vm.IntValue(int64(st.reps)), vm.IntValue(int64(st.k)))
		s.end(t, layerVM, sp)
		if err != nil {
			return 0, err
		}
		sum = mix(sum, uint64(res.I))
	}
	s.keep = live
	objs := make([]*object.Object, len(live))
	for i, o := range live {
		objs[i] = o.Object
	}
	return sum, s.released(t, objs...)
}
