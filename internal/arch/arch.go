// Package arch is the simulated hardware layer underneath the lock
// implementations.
//
// The paper's implementation ran on three kinds of machines — PowerPC
// uniprocessors, PowerPC multiprocessors, and older POWER machines without
// user-level atomic instructions — and §3.5.1 studies the cost of the
// resulting code-path variants. This package models those machines:
//
//   - PowerPCUP: user-level compare-and-swap, no memory barriers needed.
//   - PowerPCMP: user-level compare-and-swap plus isync/sync barriers
//     after lock and before unlock.
//   - POWER: no user-level compare-and-swap; the operation is performed
//     by a kernel service. We model the kernel service the way such
//     kernels implemented it — a global serialization lock around a plain
//     read-modify-write — which honestly reproduces both the extra cost
//     and the whole-machine serialization of the kernel path.
//
// On the Go side, sync/atomic's CompareAndSwapUint32 is the expensive
// fenced read-modify-write (LOCK CMPXCHG on amd64) and an atomic Load is a
// plain MOV. An atomic Store is not: Go's atomics are sequentially
// consistent, and amd64 implements the store with XCHG, a locked
// instruction. The thin unlock's store therefore costs more here than the
// paper's plain store did, and the CAS-versus-store asymmetry the paper
// measures is narrower on amd64 than on its PowerPC machines.
//
// Backoff and SpinBudget are the one policy for spinning before a park.
package arch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CPU selects one of the simulated machine models.
type CPU int

const (
	// PowerPCUP is a PowerPC uniprocessor: native compare-and-swap,
	// no barriers.
	PowerPCUP CPU = iota
	// PowerPCMP is a PowerPC multiprocessor: native compare-and-swap,
	// isync after lock and sync before unlock.
	PowerPCMP
	// POWER is an old POWER/POWER2 machine: compare-and-swap is a call
	// into the kernel.
	POWER
)

// String returns the model name used in reports.
func (c CPU) String() string {
	switch c {
	case PowerPCUP:
		return "PowerPC-UP"
	case PowerPCMP:
		return "PowerPC-MP"
	case POWER:
		return "POWER"
	default:
		return "unknown-cpu"
	}
}

// kernelLock serializes the simulated kernel compare-and-swap service,
// mirroring the global serialization of a kernel-provided atomic primitive.
var kernelLock sync.Mutex

// CAS performs a compare-and-swap of *addr from old to new under the given
// CPU model and reports whether the swap happened.
func CAS(cpu CPU, addr *uint32, old, new uint32) bool {
	switch cpu {
	case POWER:
		return kernelCAS(addr, old, new)
	default:
		return atomic.CompareAndSwapUint32(addr, old, new)
	}
}

// kernelCAS emulates a kernel compare-and-swap service call: a global
// lock around a plain read-modify-write. The function is kept out of
// line so the call itself contributes the "system call" overhead.
//
//go:noinline
func kernelCAS(addr *uint32, old, new uint32) bool {
	kernelLock.Lock()
	// Inside the "kernel" the store may be plain, but Go's race
	// detector (and weak machines) require the atomic pair.
	ok := atomic.LoadUint32(addr) == old
	if ok {
		atomic.StoreUint32(addr, new)
	}
	kernelLock.Unlock()
	return ok
}

// ISync models the PowerPC isync instruction issued after acquiring a
// lock on a multiprocessor: an acquire barrier. Go's memory model gives
// us the ordering for free from the CAS, so the barrier exists purely to
// charge the instruction's cost, which we approximate with a locked
// no-op read-modify-write (LOCK XADDL on amd64, a full barrier there).
// Its word is on the caller's stack, so no other thread writes its
// cache line, as no other thread's barrier touches the real
// instruction's.
func ISync() {
	var fence uint32
	atomic.AddUint32(&fence, 0)
}

// Sync models the PowerPC sync instruction issued before releasing a
// lock on a multiprocessor: a full barrier, charged as ISync is.
func Sync() {
	var fence uint32
	atomic.AddUint32(&fence, 0)
}

// BusyRounds is how many busy-wait rounds Backoff performs before
// starting to yield the processor.
const BusyRounds = 4

// maxSleep caps the exponential back-off sleep.
const maxSleep = time.Millisecond

// Backoff implements the exponential back-off of Anderson [1] referenced
// by the paper (§2.3.4) for the spin-locking loop used during inflation.
// The zero value is ready to use.
type Backoff struct {
	round uint
}

// Pause waits an amount of time that grows with the number of calls:
// first a few busy spins, then scheduler yields, then short sleeps with
// exponentially increasing duration.
func (b *Backoff) Pause() {
	switch {
	case b.round < BusyRounds:
		procYield(1 << b.round)
	case b.round < BusyRounds+4:
		runtime.Gosched()
	default:
		// The shift stops at 20 (about a second): a Duration shifted
		// much further overflows to zero or less, and a Sleep that
		// short returns at once.
		d := time.Microsecond << min(b.round-BusyRounds-4, 20)
		if d > maxSleep {
			d = maxSleep
		}
		time.Sleep(d)
	}
	if b.round < 63 {
		b.round++
	}
}

// Rounds reports how many times Pause has been called.
func (b *Backoff) Rounds() uint { return b.round }

// SpinRounds is the full budget of Backoff pauses a contender spends
// re-checking a lock another thread holds before it parks: a fat
// monitor's entry spin, and ThinLock-compact's spin on a thin word. The
// first eight pauses are busy spins and scheduler yields; the rest are
// short sleeps. EXPERIMENTS.md has the sweep that chose it.
const SpinRounds = 12

// SpinBudget is one thread's adaptive budget for those two bounded
// spins, in the spin-briefly-then-park style of Compact Java Monitors.
// A spin that runs out of pauses parks its thread, and the thread's
// next spin makes only the BusyRounds busy pauses: the sleeps at the end
// of the full budget cost more CPU than they return when holds are long
// (§2.3.4's pathological case). A spin that acquires the lock restores
// the full SpinRounds. The zero value is the full budget. Only its
// thread touches it, so it needs no atomics. ThinLock's own spin on a
// thin word is the paper's unbounded loop and takes no budget.
type SpinBudget struct {
	short bool // the last bounded spin ran out and parked
}

// Rounds returns how many pauses the thread's next bounded spin makes
// before it parks.
func (s *SpinBudget) Rounds() uint {
	if s.short {
		return BusyRounds
	}
	return SpinRounds
}

// Ended records how a bounded spin ended: it acquired the lock, or it
// ran out of rounds and its thread went on to park.
func (s *SpinBudget) Ended(acquired bool) { s.short = !acquired }

// Reset restarts the back-off schedule.
func (b *Backoff) Reset() { b.round = 0 }

// procYield burns a few cycles without touching shared memory,
// standing in for a PAUSE-style instruction in the spin loop: the loop's
// sum is its result, which keeps the loop alive, and Pause drops it.
// Each of n's units is yieldSpins iterations.
//
//go:noinline
func procYield(n uint) uint32 {
	var x uint32
	for i := uint(0); i < n*yieldSpins; i++ {
		x += uint32(i)
	}
	return x
}

// yieldSpins scales procYield's loop, so that the BusyRounds busy
// pauses last about as long as they did when each ended in a store to
// one process-wide word (EXPERIMENTS.md, "Fat monitors in one word").
const yieldSpins = 2
