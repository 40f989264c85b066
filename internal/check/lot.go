package check

// The lot corpus: hand-written schedules aimed at compact monitors,
// which keep every blocked thread on the parking lot rather than in an
// inflated monitor. A waiter is filed while its owner still holds the
// lock and races enters as it releases; a notify relabels a waiter that
// its notifier's final unlock then owes a wake; a contender that lost
// the race after a wake parks again while the winner's short hold ends;
// two objects' waiters and contenders share the lot; a wait deep in a
// recursive hold restores its depth under contention. The generated-
// program stress (Generate) finds these shapes eventually; the corpus
// makes every run hit them, which is why both the certification tests
// and `lockcheck -mutate lot-*` start here.
//
// Corpus programs lean on timed waits and work ops to open the races,
// so they should run with a short WaitTimeout (~2ms) and WorkDuration
// (~1ms) — see LotCorpusConfig.

import "time"

// NamedProgram pairs a checker program with the hazard it targets.
type NamedProgram struct {
	Name string
	P    Program
}

// LotCorpusConfig is the Config the lot corpus is tuned for: a wait
// outlasts a notifier's work op, so the notify finds its waiter, and a
// holder dwells while contenders spin out their budget and park.
func LotCorpusConfig(schedule int64, timeout time.Duration) Config {
	return Config{
		Schedule:     schedule,
		Timeout:      timeout,
		WaitTimeout:  2 * time.Millisecond,
		WorkDuration: time.Millisecond,
	}
}

// LotCorpus returns the lot-race programs. Every correct implementation
// must pass all of them under every schedule seed.
func LotCorpus() []NamedProgram {
	return []NamedProgram{
		{
			// Waits on one object while two threads hammer plain
			// lock/unlock: each wait files its waiter and releases the
			// lock into a racing enter.
			Name: "wait-vs-enter",
			P: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}},
				{{OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{Kind: OpWork}, {OpLock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
			}},
		},
		{
			// The waiter alternates between two objects while dedicated
			// threads hammer each: the objects may share a lot bucket,
			// and a wake or relabel must never reach the other object's
			// threads.
			Name: "two-object-waits",
			P: Program{Objects: 2, Threads: [][]Op{
				{{OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {OpLock, 1}, {OpWait, 1}, {OpUnlock, 1}, {OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {OpLock, 1}, {OpWait, 1}, {OpUnlock, 1}},
				{{OpLock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{OpLock, 1}, {Kind: OpWork}, {OpUnlock, 1}, {OpLock, 1}, {OpUnlock, 1}, {OpLock, 1}, {OpUnlock, 1}},
			}},
		},
		{
			// A notifier races the waiter's release and re-acquisition.
			Name: "notify-vs-release",
			P: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{OpLock, 0}, {OpNotify, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpNotifyAll, 0}, {OpUnlock, 0}},
			}},
		},
		{
			// The notify lands while the waiter is still filed, so the
			// notifier's final unlock owes the relabeled waiter its
			// wake. This is the program that kills the LotDropWake
			// mutation: the waiter, notified, sleeps through its timeout.
			Name: "notify-owed-wake",
			P: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}},
				{{Kind: OpWork}, {OpLock, 0}, {OpNotify, 0}, {OpUnlock, 0}},
			}},
		},
		{
			// Two contenders spin out their budget behind a long hold
			// and park, so the release races their parks; the release
			// wakes both, and the loser parks again as the winner's
			// short hold ends. This is the program that kills the
			// LotSkipValidate mutation: a contender parks after the
			// release that should have woken it.
			Name: "contend-repark",
			P: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {Kind: OpWork}, {Kind: OpWork}, {Kind: OpWork}, {OpUnlock, 0}},
				{{OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
			}},
		},
		{
			// A wait at depth 3 restores all three levels; the
			// intermediate unlocks must not release the lock to the
			// contender, and the final one must.
			Name: "nested-wait",
			P: Program{Objects: 1, Threads: [][]Op{
				{{OpLock, 0}, {OpLock, 0}, {OpLock, 0}, {OpWait, 0}, {OpUnlock, 0}, {Kind: OpWork}, {OpUnlock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
				{{Kind: OpWork}, {OpLock, 0}, {OpUnlock, 0}, {OpLock, 0}, {OpUnlock, 0}},
			}},
		},
	}
}
