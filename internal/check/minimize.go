package check

// Minimize shrinks a failing program while it keeps failing, so the
// schedule printed for a failure is close to the essential core of the
// bug rather than the 100-op haystack the fuzzer found it in. stillFails
// must re-run the candidate (typically over a handful of schedule seeds,
// comparing the failure kind against the original) and report whether
// it reproduces.
//
// The strategy is a delta-debugging loop over two granularities: whole
// threads first, then exponentially shrinking op chunks within each
// thread, repeated until a full pass removes nothing. Removing ops can
// only make a generated program's remaining ops "more illegal" (every
// removal shrinks the issuing thread's held-set, and expectations are
// recomputed from the shrunk program), so candidates stay well formed;
// removals that would introduce a harness-level hang are rejected by
// stillFails itself, because a hang changes the failure kind.
func Minimize(p Program, stillFails func(Program) bool) Program {
	best := p.clone()
	for changed := true; changed; {
		changed = false

		// Pass 1: drop whole threads.
		for ti := 0; ti < len(best.Threads); ti++ {
			if len(best.Threads) == 1 {
				break
			}
			cand := best.clone()
			cand.Threads = append(cand.Threads[:ti], cand.Threads[ti+1:]...)
			if stillFails(cand) {
				best = cand
				changed = true
				ti--
			}
		}

		// Pass 2: drop chunks of ops, halving the chunk size. A thread
		// emptied here is dropped, so the bound is re-read every turn.
		for ti := 0; ti < len(best.Threads); ti++ {
			for size := len(best.Threads[ti]); size >= 1; size /= 2 {
				for at := 0; at+size <= len(best.Threads[ti]); {
					cand := best.clone()
					ops := cand.Threads[ti]
					cand.Threads[ti] = append(ops[:at:at], ops[at+size:]...)
					if len(cand.Threads[ti]) == 0 && len(cand.Threads) > 1 {
						cand.Threads = append(cand.Threads[:ti], cand.Threads[ti+1:]...)
					}
					if stillFails(cand) && cand.NumOps() < best.NumOps() {
						best = cand
						changed = true
						if len(best.Threads) <= ti {
							break
						}
					} else {
						at += size
					}
				}
				if len(best.Threads) <= ti {
					break
				}
			}
		}
	}

	// Pass 3: drop now-unused objects so the printed program is tight.
	used := make([]bool, best.Objects)
	for _, ops := range best.Threads {
		for _, op := range ops {
			if op.Kind != OpWork {
				used[op.Obj] = true
			}
		}
	}
	remap := make([]int, best.Objects)
	n := 0
	for o, u := range used {
		if u {
			remap[o] = n
			n++
		}
	}
	if n > 0 && n < best.Objects {
		cand := best.clone()
		cand.Objects = n
		for ti := range cand.Threads {
			for i := range cand.Threads[ti] {
				if cand.Threads[ti][i].Kind != OpWork {
					cand.Threads[ti][i].Obj = remap[cand.Threads[ti][i].Obj]
				}
			}
		}
		if stillFails(cand) {
			best = cand
		}
	}
	return best
}

// SameKind reports whether fs contains a failure of kind k; it is the
// usual predicate fed to Minimize so shrinking preserves the failure
// class instead of wandering to an unrelated (possibly harness-induced)
// one.
func SameKind(fs []Failure, k FailureKind) bool {
	for _, f := range fs {
		if f.Kind == k {
			return true
		}
	}
	return false
}
