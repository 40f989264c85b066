// Integration tests spanning the whole stack: the public API, the
// bytecode VM, the synchronized class library, the macro workloads and
// every lock implementation and extension combination.
package thinlock_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"thinlock"
	"thinlock/internal/arch"
	"thinlock/internal/bench"
	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/jcl"
	"thinlock/internal/lockapi"
	"thinlock/internal/monitorcache"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
	"thinlock/internal/workloads"
)

// lockerConfigs enumerates every implementation and extension combination
// the integration suite exercises.
func lockerConfigs() []struct {
	name string
	mk   func() lockapi.Locker
} {
	return []struct {
		name string
		mk   func() lockapi.Locker
	}{
		{"ThinLock", func() lockapi.Locker { return core.NewDefault() }},
		{"ThinLock-MP", func() lockapi.Locker {
			return core.New(core.Options{CPU: arch.PowerPCMP})
		}},
		{"ThinLock-compact", func() lockapi.Locker {
			return core.New(core.Options{Compact: true})
		}},
		{"ThinLock-2bit", func() lockapi.Locker {
			return core.New(core.Options{CountBits: 2})
		}},
		{"JDK111", func() lockapi.Locker { return monitorcache.NewDefault() }},
		{"JDK111-tiny", func() lockapi.Locker {
			return monitorcache.New(monitorcache.Options{Capacity: 2})
		}},
		{"IBM112", func() lockapi.Locker { return hotlocks.NewDefault() }},
		{"IBM112-eager", func() lockapi.Locker {
			return hotlocks.New(hotlocks.Options{Threshold: 1})
		}},
	}
}

// TestWorkloadSuiteUnderEveryConfiguration runs every macro workload
// under every lock configuration and demands identical checksums.
func TestWorkloadSuiteUnderEveryConfiguration(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			want := uint64(0)
			for i, cfg := range lockerConfigs() {
				ctx := jcl.NewContext(cfg.mk(), object.NewHeap())
				reg := threading.NewRegistry()
				th, err := reg.Attach("t")
				if err != nil {
					t.Fatal(err)
				}
				got := w.Run(ctx, th, 1)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("%s: checksum %#x, want %#x", cfg.name, got, want)
				}
			}
		})
	}
}

// TestVMContentionUnderEveryConfiguration runs a contended synchronized-
// method program on the VM under every configuration.
func TestVMContentionUnderEveryConfiguration(t *testing.T) {
	for _, cfg := range lockerConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			prog := vm.NewProgram()
			c := &vm.Class{Name: "Counter", NumFields: 1}
			prog.AddClass(c)
			prog.AddMethod(&vm.Method{
				Name: "inc", Class: c, Flags: vm.FlagSync,
				NumArgs: 1, MaxLocals: 1,
				Code: vm.NewAsm().
					Aload(0).Aload(0).GetField(0).Iconst(1).Iadd().PutField(0).
					Return().
					MustBuild(),
			})
			machine, err := vm.New(prog, cfg.mk(), object.NewHeap())
			if err != nil {
				t.Fatal(err)
			}
			o, err := machine.NewInstance("Counter")
			if err != nil {
				t.Fatal(err)
			}
			reg := threading.NewRegistry()
			const goroutines, iters = 4, 250
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th, err := reg.Attach("w")
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(th *threading.Thread) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if _, err := machine.Run(th, "Counter.inc", vm.RefValue(o)); err != nil {
							t.Error(err)
							return
						}
					}
				}(th)
			}
			wg.Wait()
			if o.Fields[0].I != goroutines*iters {
				t.Fatalf("counter = %d, want %d", o.Fields[0].I, goroutines*iters)
			}
		})
	}
}

// TestMicroKernelsUnderExtensions runs the Table 2 kernels under the
// extension configurations (the bench package itself only covers the
// paper's implementations).
func TestMicroKernelsUnderExtensions(t *testing.T) {
	const iters = 1_000
	for _, cfg := range lockerConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			m, err := bench.NewMicro(cfg.mk())
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []func() error{
				func() error { return m.Sync(iters) },
				func() error { return m.NestedSync(iters) },
				func() error { return m.MultiSync(40, iters) },
				func() error { return m.CallSync(iters) },
				func() error { return m.Threads(3, iters/3) },
			} {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPublicAPIProducerConsumerAcrossImplementations runs a wait/notify
// pipeline through the public Runtime under each implementation.
func TestPublicAPIProducerConsumerAcrossImplementations(t *testing.T) {
	impls := []thinlock.Implementation{thinlock.ThinLock, thinlock.JDK111, thinlock.IBM112}
	for _, impl := range impls {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			t.Parallel()
			rt := thinlock.New(thinlock.WithImplementation(impl))
			mon := rt.NewObject("queue")
			var queue []int
			const items = 500

			consumerDone := make(chan int, 1)
			done1, err := rt.Go("consumer", func(th *thinlock.Thread) {
				got := 0
				for got < items {
					rt.Lock(th, mon)
					for len(queue) == 0 {
						if _, err := rt.Wait(th, mon, 0); err != nil {
							t.Error(err)
							break
						}
					}
					queue = queue[:len(queue)-1]
					got++
					if err := rt.Unlock(th, mon); err != nil {
						t.Error(err)
					}
				}
				consumerDone <- got
			})
			if err != nil {
				t.Fatal(err)
			}
			done2, err := rt.Go("producer", func(th *thinlock.Thread) {
				for i := 0; i < items; i++ {
					rt.Lock(th, mon)
					queue = append(queue, i)
					if err := rt.Notify(th, mon); err != nil {
						t.Error(err)
					}
					if err := rt.Unlock(th, mon); err != nil {
						t.Error(err)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-consumerDone:
				if got != items {
					t.Fatalf("consumed %d, want %d", got, items)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("pipeline deadlocked")
			}
			<-done1
			<-done2
		})
	}
}

// TestManyThreadsManyObjectsTorture mixes nested locking, wait/timeout,
// and contention over a pool of objects under the default thin locks.
func TestManyThreadsManyObjectsTorture(t *testing.T) {
	rt := thinlock.New()
	const (
		goroutines = 8
		objects    = 16
		iters      = 200
	)
	objs := make([]*thinlock.Object, objects)
	counters := make([]int, objects)
	for i := range objs {
		objs[i] = rt.NewObject(fmt.Sprintf("obj-%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		if _, err := rt.Go(fmt.Sprintf("w%d", g), func(th *thinlock.Thread) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*37 + i*11) % objects
				o := objs[k]
				rt.Lock(th, o)
				rt.Lock(th, o) // nested
				counters[k]++
				if i%50 == 25 {
					// Timed wait exercises inflation + requeueing.
					if _, err := rt.Wait(th, o, time.Millisecond); err != nil {
						t.Error(err)
					}
				}
				if err := rt.Unlock(th, o); err != nil {
					t.Error(err)
				}
				if err := rt.Unlock(th, o); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != goroutines*iters {
		t.Fatalf("total = %d, want %d", total, goroutines*iters)
	}
}
