package core

// Mutations are deliberately seeded bugs used to validate that the
// concurrent differential checker (internal/check) has teeth: a harness
// that cannot catch a known-planted protocol bug proves nothing when it
// passes on the real code. They are a test-only option — nothing in the
// repository enables a mutation outside internal/check tests and the
// `lockcheck -mutate` demonstration flag — and the zero value disables
// all of them.
//
// The mutations target the classic failure classes of lock-word
// protocols:
//
//   - OverflowOffByOne plants an off-by-one in the nested-count overflow
//     inflation of §2.3.3: the fat lock is seeded with one recursion
//     level too few, so the monitor is fully released one unlock early.
//     The thread's final unlock then reports ErrIllegalMonitorState, and
//     under contention a second thread can enter the critical section
//     while the first still believes it holds the lock — a mutual
//     exclusion violation.
//
//   - DropQueuedWake removes the owner-side wake of the lot's entry
//     parkers from a compact monitor's final unlock, breaking the flc
//     Dekker handshake documented in compact.go. A contender parked on
//     the lot, or a waiter a notify relabeled as one, is never woken: a
//     lost wakeup that leaves the schedule permanently stuck.
//
//   - LotSkipValidate parks a contender on the lot without re-checking
//     the lock word and the flc bit under the bucket lock (the validate
//     of threading.Park), dwelling between setting flc and parking so
//     the race is schedulable (the dwell is a legal schedule; only the
//     missing check is the bug). An owner that releases inside the
//     dwell wakes nobody, and the contender sleeps forever on a free
//     lock: a stuck schedule.
//
//   - LotDropWake makes a compact Notify relabel its waiter without
//     setting flc, dropping the wake that the notifier's final unlock
//     owes the waiter. A notified waiter sleeps through the release and
//     is stranded: a stuck schedule.
//
// (The paper's `sync` barrier in the MPSync unlock path cannot serve as
// a mutation here: arch.Sync models only the instruction's cost, because
// Go's sequentially consistent atomics already provide the ordering, so
// dropping it is unobservable by construction.)
type Mutations struct {
	// OverflowOffByOne seeds the overflow inflation with maxCount+1
	// locks instead of the correct maxCount+2.
	OverflowOffByOne bool

	// DropQueuedWake skips the flc wake after a compact final unlock,
	// losing the wakeup the lot handshake depends on.
	DropQueuedWake bool

	// LotSkipValidate parks lot contenders without validate.
	LotSkipValidate bool

	// LotDropWake skips the flc bit a compact Notify sets.
	LotDropWake bool
}

// Enabled reports whether any mutation is switched on.
func (m Mutations) Enabled() bool {
	return m.OverflowOffByOne || m.DropQueuedWake || m.LotSkipValidate || m.LotDropWake
}
