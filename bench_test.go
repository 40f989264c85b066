// Benchmarks regenerating the paper's evaluation with `go test -bench`.
//
// Mapping to the paper (see DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkNoSync, BenchmarkSync, BenchmarkNestedSync, BenchmarkCall,
//	BenchmarkCallSync, BenchmarkNestedCallSync, BenchmarkMultiSync,
//	BenchmarkThreads            — Table 2 kernels × Figure 4 comparison
//	BenchmarkTradeoffs          — Figure 6 implementation variants
//	BenchmarkMacro              — Figure 5 macro-benchmark comparison
//	BenchmarkDirectLockUnlock   — the raw fast path (no interpreter),
//	                              the paper's "17 instructions" claim
//	BenchmarkBiasedReacquire    — Biased vs ThinLock owner reacquire
//	                              over 1 and 8 locked objects
//	BenchmarkWaitNotifyRoundTrip — unit cost of a wait/notify handoff
//	BenchmarkInflationAblation  — extension: inflate for life vs compact monitors
//
// cmd/macrobench produces the paper-formatted tables (-fig4, -fig6 and
// the default Figure 5 run among them); these benches expose the same
// kernels through the standard Go tooling.
package thinlock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"thinlock/internal/bench"
	"thinlock/internal/core"
	"thinlock/internal/jcl"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/workloads"
)

// benchMicro runs one Table 2 kernel under every standard implementation.
func benchMicro(b *testing.B, kernel string, param int) {
	for _, f := range bench.StandardImpls() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			m, err := bench.NewMicro(f.New())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := m.Run(kernel, param, int64(b.N)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkNoSync measures the interpretation cost of the bare loop — the
// paper's reference point for all other kernels.
func BenchmarkNoSync(b *testing.B) { benchMicro(b, "NoSync", 0) }

// BenchmarkSync is Figure 4's headline: initial locking of an unlocked
// object (paper: ThinLock 3.7x JDK111, 1.8x IBM112).
func BenchmarkSync(b *testing.B) { benchMicro(b, "Sync", 0) }

// BenchmarkNestedSync measures nested locking (paper: IBM112 nearly
// matches ThinLock here).
func BenchmarkNestedSync(b *testing.B) { benchMicro(b, "NestedSync", 0) }

// BenchmarkMixedSync is the three-nested-locks kernel of §3.5.
func BenchmarkMixedSync(b *testing.B) { benchMicro(b, "MixedSync", 0) }

// BenchmarkCall is the non-synchronized method-call reference.
func BenchmarkCall(b *testing.B) { benchMicro(b, "Call", 0) }

// BenchmarkCallSync measures synchronized method invocation.
func BenchmarkCallSync(b *testing.B) { benchMicro(b, "CallSync", 0) }

// BenchmarkNestedCallSync measures nested synchronized method invocation.
func BenchmarkNestedCallSync(b *testing.B) { benchMicro(b, "NestedCallSync", 0) }

// BenchmarkMultiSync sweeps the lock working-set size. The paper's
// crossovers: IBM112 collapses past its 32 hot locks; JDK111 degrades as
// the monitor cache thrashes; ThinLock scales flat.
func BenchmarkMultiSync(b *testing.B) {
	for _, n := range []int{1, 32, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMicro(b, "MultiSync", n)
		})
	}
}

// BenchmarkThreads sweeps contention: n threads hammering one object.
func BenchmarkThreads(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMicro(b, "Threads", n)
		})
	}
}

// BenchmarkTradeoffs is Figure 6: the implementation-variant ladder on
// the Sync, MixedSync and CallSync kernels.
func BenchmarkTradeoffs(b *testing.B) {
	for _, kernel := range []string{"Sync", "MixedSync", "CallSync"} {
		b.Run(kernel, func(b *testing.B) {
			for _, f := range bench.VariantImpls() {
				f := f
				b.Run(f.Name, func(b *testing.B) {
					m, err := bench.NewMicro(f.New())
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					if err := m.Run(kernel, 0, int64(b.N)); err != nil {
						b.Fatal(err)
					}
				})
			}
		})
	}
}

// BenchmarkMacro is Figure 5: the workload suite under the three
// implementations. b.N counts whole workload runs at a small fixed size.
func BenchmarkMacro(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for _, f := range bench.StandardImpls() {
				f := f
				b.Run(f.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						ctx := jcl.NewContext(f.New(), object.NewHeap())
						reg := threading.NewRegistry()
						t, err := reg.Attach("bench")
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						w.Run(ctx, t, 2)
					}
				})
			}
		})
	}
}

// BenchmarkDirectLockUnlock measures the raw lock/unlock pair through the
// Locker interface with no interpreter in the way — the closest Go
// analogue of the paper's inline fast-path instruction count.
func BenchmarkDirectLockUnlock(b *testing.B) {
	impls := append(bench.StandardImpls(),
		bench.Factory{Name: "ThinLock-Inline", New: func() lockapi.Locker {
			return core.New(core.Options{Variant: core.VariantInline})
		}},
		bench.Factory{Name: "ThinLock-UnlkCAS", New: func() lockapi.Locker {
			return core.New(core.Options{Variant: core.VariantUnlockCAS})
		}})
	for _, f := range impls {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			l := f.New()
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			t, err := reg.Attach("bench")
			if err != nil {
				b.Fatal(err)
			}
			o := heap.New("X")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(t, o)
				if err := l.Unlock(t, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBiasedReacquire splits the owner's reacquire path, the
// benchmark's reacquire workload in miniature: lock/unlock pairs by one
// thread over 1 object and over 8, each locked once before timing (for
// Biased, one reservation per bias slot), visited in a fixed seeded
// order. Both sizes run the same loop, so the 8-object case adds only
// what finding an object's lock state costs beyond the first: for
// Biased, finding the slot that holds its depth.
func BenchmarkBiasedReacquire(b *testing.B) {
	for _, f := range bench.StandardImpls() {
		if f.Name != "Biased" && f.Name != "ThinLock" {
			continue
		}
		for _, n := range []int{1, threading.BiasSlots} {
			f, n := f, n
			b.Run(fmt.Sprintf("%s/objects=%d", f.Name, n), func(b *testing.B) {
				l := f.New()
				heap := object.NewHeap()
				reg := threading.NewRegistry()
				t, err := reg.Attach("bench")
				if err != nil {
					b.Fatal(err)
				}
				objs := make([]*object.Object, n)
				for i := range objs {
					objs[i] = heap.New("X")
					l.Lock(t, objs[i])
					if err := l.Unlock(t, objs[i]); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(1))
				order := make([]*object.Object, 1024)
				for i := range order {
					order[i] = objs[rng.Intn(n)]
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := order[i%len(order)]
					l.Lock(t, o)
					if err := l.Unlock(t, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDirectNestedLock measures the nested fast path (plain store).
func BenchmarkDirectNestedLock(b *testing.B) {
	for _, f := range bench.StandardImpls() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			l := f.New()
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			t, err := reg.Attach("bench")
			if err != nil {
				b.Fatal(err)
			}
			o := heap.New("X")
			l.Lock(t, o)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(t, o)
				if err := l.Unlock(t, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWaitNotifyRoundTrip is the wait/notify unit cost: two
// threads alternate on one inflated object, each notifying the other and
// then waiting. One op is one round trip: two Notify+Wait handoffs.
func BenchmarkWaitNotifyRoundTrip(b *testing.B) {
	for _, f := range bench.StandardImpls() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			l := f.New()
			reg := threading.NewRegistry()
			o := object.NewHeap().New("X")
			play := func(t *threading.Thread) {
				l.Lock(t, o)
				for i := 0; i < b.N; i++ {
					if err := l.Notify(t, o); err != nil {
						b.Error(err)
					}
					if _, err := l.Wait(t, o, 0); err != nil {
						b.Error(err)
					}
				}
				if err := l.Notify(t, o); err != nil {
					b.Error(err)
				}
				if err := l.Unlock(t, o); err != nil {
					b.Error(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			done, err := reg.Go("pong", play)
			if err != nil {
				b.Fatal(err)
			}
			t, err := reg.Attach("ping")
			if err != nil {
				b.Fatal(err)
			}
			play(t)
			<-done
		})
	}
}

// BenchmarkContentionPolicy compares the paper's spin-with-back-off
// against compact monitors on the pathological long-hold case of
// §2.3.4. b.N counts contention rounds
// with a 200µs hold.
func BenchmarkContentionPolicy(b *testing.B) {
	for _, policy := range bench.ContentionPolicies {
		b.Run(policy, func(b *testing.B) {
			r, err := bench.RunContentionPolicy(policy, b.N, 2, 200*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(r.SpinRounds)/float64(b.N), "spin-pauses/round")
			b.ReportMetric(float64(r.Parks)/float64(b.N), "parks/round")
		})
	}
}

// BenchmarkInflationAblation times the uncontended lock/unlock pair on
// an object that has been contended once: under the paper's
// keep-inflated policy it is a fat monitor's enter and exit, under
// compact monitors a thin CAS and store plus the unlock's flags load
// (DESIGN.md §6).
func BenchmarkInflationAblation(b *testing.B) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"KeepInflated", core.Options{}},
		{"Compact", core.Options{Compact: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			l := core.New(cfg.opts)
			heap := object.NewHeap()
			reg := threading.NewRegistry()
			t, err := reg.Attach("bench")
			if err != nil {
				b.Fatal(err)
			}
			t2, err := reg.Attach("bench2")
			if err != nil {
				b.Fatal(err)
			}
			o := heap.New("X")
			// Contend once: t2 spins on t's hold.
			l.Lock(t, o)
			inflated := make(chan struct{})
			go func() {
				l.Lock(t2, o)
				if err := l.Unlock(t2, o); err != nil {
					b.Error(err)
				}
				close(inflated)
			}()
			for l.Stats().SpinRounds == 0 {
			}
			if err := l.Unlock(t, o); err != nil {
				b.Fatal(err)
			}
			<-inflated
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(t, o)
				if err := l.Unlock(t, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
