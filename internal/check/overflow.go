package check

// OverflowProgram is one thread locking one object five times and
// unlocking it five times. With a 2-bit count field a thin lock holds
// four levels, so the fifth lock crosses the overflow inflation of
// §2.3.3 under every schedule. Random programs reach that depth only
// when no earlier contention or wait has inflated the object, which
// depends on timing, so the seeded OverflowOffByOne mutation is checked
// against this program first (TestCheckerCatchesOverflowOffByOne and
// `lockcheck -mutate overflow`).
func OverflowProgram() NamedProgram {
	var ops []Op
	for i := 0; i < 5; i++ {
		ops = append(ops, Op{OpLock, 0})
	}
	for i := 0; i < 5; i++ {
		ops = append(ops, Op{OpUnlock, 0})
	}
	return NamedProgram{Name: "nested-overflow", P: Program{Objects: 1, Threads: [][]Op{ops}}}
}
