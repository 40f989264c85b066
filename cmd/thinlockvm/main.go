// Command thinlockvm runs a demonstration bytecode program on the
// internal VM under a chosen lock implementation, printing the
// disassembly, the result, and the lock statistics — a small driver for
// poking at the system end to end.
//
// Usage:
//
//	thinlockvm [-impl name] [-iters N] [-threads N] [-dis]
//
// -impl accepts any name from bench.StandardImpls (its help text lists
// them). To run a minijava program instead, use cmd/thinlockc.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"thinlock/internal/bench"
	"thinlock/internal/core"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

func main() {
	impl := flag.String("impl", "ThinLock", "lock implementation: "+strings.Join(bench.Names(bench.StandardImpls()), ", "))
	iters := flag.Int64("iters", 100_000, "synchronized increments per thread")
	threads := flag.Int("threads", 4, "competing threads")
	dis := flag.Bool("dis", false, "print the program disassembly")
	flag.Parse()

	f, ok := bench.Lookup(bench.StandardImpls(), *impl)
	if !ok {
		fmt.Fprintf(os.Stderr, "thinlockvm: unknown implementation %q\n", *impl)
		os.Exit(1)
	}
	locker := f.New()

	// Counter.add: a synchronized method incrementing field 0.
	prog := vm.NewProgram()
	counter := &vm.Class{Name: "Counter", NumFields: 1}
	prog.AddClass(counter)
	prog.AddMethod(&vm.Method{
		Name: "add", Class: counter, Flags: vm.FlagSync,
		NumArgs: 1, MaxLocals: 1,
		Code: vm.NewAsm().
			Aload(0).Aload(0).GetField(0).Iconst(1).Iadd().PutField(0).
			Return().
			MustBuild(),
	})
	// hammer(obj, n): calls Counter.add n times.
	prog.AddMethod(&vm.Method{
		Name: "hammer", Flags: vm.FlagStatic,
		NumArgs: 2, MaxLocals: 3,
		Code: vm.NewAsm().
			Iconst(0).Istore(2).
			Label("loop").
			Iload(2).Iload(1).IfICmpGE("done").
			Aload(0).Invoke(0).
			Iinc(2, 1).
			Goto("loop").
			Label("done").
			Return().
			MustBuild(),
	})

	machine, err := vm.New(prog, locker, object.NewHeap())
	if err != nil {
		fmt.Fprintln(os.Stderr, "thinlockvm:", err)
		os.Exit(1)
	}

	if *dis {
		for _, m := range prog.Methods {
			fmt.Printf("method %s:\n%s", m.QualifiedName(), vm.Disassemble(m.Code))
		}
	}

	obj, err := machine.NewInstance("Counter")
	if err != nil {
		fmt.Fprintln(os.Stderr, "thinlockvm:", err)
		os.Exit(1)
	}

	reg := threading.NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < *threads; i++ {
		th, err := reg.Attach(fmt.Sprintf("worker-%d", i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "thinlockvm:", err)
			os.Exit(1)
		}
		wg.Add(1)
		go func(th *threading.Thread) {
			defer wg.Done()
			if _, err := machine.Run(th, "hammer", vm.RefValue(obj), vm.IntValue(*iters)); err != nil {
				fmt.Fprintln(os.Stderr, "thinlockvm:", err)
				os.Exit(1)
			}
		}(th)
	}
	wg.Wait()

	want := int64(*threads) * *iters
	fmt.Printf("impl=%s threads=%d iters=%d -> counter=%d (want %d)\n",
		locker.Name(), *threads, *iters, obj.Fields[0].I, want)
	if obj.Fields[0].I != want {
		fmt.Fprintln(os.Stderr, "thinlockvm: LOST UPDATES — mutual exclusion violated")
		os.Exit(1)
	}
	if tl, ok := locker.(*core.ThinLocks); ok {
		s := tl.Stats()
		fmt.Printf("thin-lock stats: inflations=%d (contention=%d overflow=%d wait=%d) spins=%d fat locks=%d\n",
			s.Inflations(), s.InflationsContention, s.InflationsOverflow,
			s.InflationsWait, s.SpinAcquisitions, s.FatLocks)
		fmt.Printf("counter object inflated: %v\n", tl.Inflated(obj.Object))
	}
}
