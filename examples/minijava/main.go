// Minijava: the full language-processing pipeline end to end. A small
// Java-like program with synchronized methods and synchronized blocks is
// compiled to bytecode (monitorenter/monitorexit and synchronized-method
// flags included), then executed on the interpreter under each of the
// paper's three lock implementations, with multiple threads hammering the
// compiled synchronized code.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"thinlock/internal/bench"
	"thinlock/internal/core"
	"thinlock/internal/minijava"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

const source = `
// A bank with synchronized deposits: the classic monitor example,
// here compiled from source and run on the bytecode VM.
class Account {
    field balance;
    sync method deposit(n) {
        this.balance = this.balance + n;
        return this.balance;
    }
    method balanceOf() { return this.balance; }
}

func depositor(a: Account, times, amount) {
    var i = 0;
    while (i < times) {
        a.deposit(amount);
        i = i + 1;
    }
    return 0;
}
`

func main() {
	prog, err := minijava.Compile(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled methods:")
	for _, m := range prog.Methods {
		sync := ""
		if m.Sync() {
			sync = " (synchronized)"
		}
		fmt.Printf("  %s%s: %d instructions\n", m.QualifiedName(), sync, len(m.Code))
	}

	const (
		threads = 4
		times   = 30_000
		amount  = 3
	)

	for _, f := range bench.StandardImpls() {
		locker := f.New()
		machine, err := vm.New(prog, locker, object.NewHeap())
		if err != nil {
			log.Fatal(err)
		}
		account, err := machine.NewInstance("Account")
		if err != nil {
			log.Fatal(err)
		}
		reg := threading.NewRegistry()

		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			th, err := reg.Attach(fmt.Sprintf("depositor-%d", i))
			if err != nil {
				log.Fatal(err)
			}
			wg.Add(1)
			go func(th *threading.Thread) {
				defer wg.Done()
				if _, err := machine.Run(th, "depositor",
					vm.RefValue(account), vm.IntValue(times), vm.IntValue(amount)); err != nil {
					log.Fatal(err)
				}
			}(th)
		}
		wg.Wait()
		elapsed := time.Since(start)

		main, err := reg.Attach("main")
		if err != nil {
			log.Fatal(err)
		}
		res, err := machine.Run(main, "Account.balanceOf", vm.RefValue(account))
		if err != nil {
			log.Fatal(err)
		}
		want := int64(threads * times * amount)
		status := "OK"
		if res.I != want {
			status = "LOST UPDATES"
		}
		extra := ""
		if tl, ok := locker.(*core.ThinLocks); ok {
			s := tl.Stats()
			extra = fmt.Sprintf("  (inflations=%d, fat locks=%d)", s.Inflations(), s.FatLocks)
		}
		fmt.Printf("%-9s balance=%d want=%d %s in %v%s\n",
			f.Name, res.I, want, status, elapsed.Round(time.Millisecond), extra)
		if res.I != want {
			log.Fatal("lost updates: mutual exclusion violated")
		}
	}
}
