package check

import (
	"fmt"
	"strings"

	"thinlock/internal/core"
)

// This file is the small-scope exhaustive explorer: a model checker for
// the thin-lock transition table itself. The stress harness (run.go)
// samples schedules of real executions; this explorer instead enumerates
// *every* interleaving of the protocol's atomic actions for tiny
// programs (≤3 threads × ≤4 lock/unlock ops × ≤2 objects) against an
// abstract state machine whose transitions are written with the real
// lock-word encodings of internal/core/lockword.go.
//
// The model is deliberately honest about the paper's central trick: the
// owner's nested locking, nested unlocking and final unlocking are
// *plain stores of a previously loaded value*, not atomic updates. Each
// lock/unlock operation is therefore split into its observable atomic
// actions — the load of the header word, then a compare-and-swap or a
// (possibly stale) store — and the explorer interleaves those actions
// freely across threads. If the locking discipline ("no thread other
// than the owner ever writes the lock word of a thin-locked object",
// §2.3) were unsound anywhere in the transition table, some interleaving
// would store a stale word and the spec invariant would catch the
// corruption. Blocked threads (spinning on a thin lock held by another
// thread, or queued on a fat monitor) are modeled as disabled until the
// state they poll changes, which keeps the state graph finite without
// losing any distinct interleaving.
//
// The spec checked after every transition is the lock-word state-machine
// contract derived from lockword.go (Figure 1 of the paper):
//
//   - mutual exclusion: at most one thread has completed recursion
//     depth > 0 on an object;
//   - a thin word's owner/count must equal exactly the spec depth of
//     that thread (count stores depth−1) with all other depths zero;
//   - an unlocked word implies all depths are zero;
//   - an inflated word must reference an allocated monitor whose
//     owner/count mirror the spec depths;
//   - the UnlkC&S variant's unlock compare-and-swap must never fail
//     (the discipline makes it unneeded — that is the §3.5 claim);
//   - an unlock that errors must come from a thread whose spec depth is
//     zero (ErrIllegalMonitorState exactly when not owned).
//
// Cross-object deadlocks (two threads acquiring two objects in opposite
// orders) are reachable terminal states and are *not* violations: they
// are program bugs, not lock-word bugs, and the stress harness's
// generator excludes them by ordered acquisition.

// Explorer size bounds. These are small-scope limits, not soft caps:
// the explorer enumerates every interleaving within them.
const (
	MaxModelThreads = 3
	MaxModelOps     = 4
	MaxModelObjects = 2
)

// ModelConfig parameterizes the abstract machine.
type ModelConfig struct {
	// Variant selects the implementation alternative; every variant
	// except VariantNOP maps onto the model (the fence-only differences
	// between Standard, Inline, FnCall, MPSync and KernelCAS are
	// invisible under sequentially consistent interleaving semantics,
	// which is exactly why they share one transition table; UnlkC&S
	// additionally asserts its unlock CAS cannot fail).
	Variant core.Variant
	// CountBits narrows the nested-count field as in core.Options;
	// 0 means 8. CountBits=1 reaches count overflow within 3 ops.
	CountBits int
	// OverflowOffByOne plants the same seeded bug as
	// core.Mutations.OverflowOffByOne into the model, so tests can
	// prove the explorer detects a broken transition table.
	OverflowOffByOne bool
}

// mop is one model operation: lock or unlock of one object.
type mop struct {
	lock bool
	obj  int8
}

func (m mop) String() string {
	k := "unlock"
	if m.lock {
		k = "lock"
	}
	return fmt.Sprintf("%s(%d)", k, m.obj)
}

// monState is the abstract fat monitor for one object (allocated at
// most once per object, matching the paper's protocol where inflation
// is permanent).
type monState struct {
	exists bool
	owner  int8 // 0 = none, else thread number (1-based)
	count  uint32
}

// thState is one thread's position in the protocol.
type thState struct {
	pc     int8
	phase  int8 // 0 = must load header; 1 = loaded; 2 = contention-inflation pending
	loaded uint32
	spun   bool
	depth  [MaxModelObjects]int8 // spec: completed recursion depth
}

// mstate is a full abstract machine state. It is a comparable value
// type so it can key the visited set directly.
type mstate struct {
	words [MaxModelObjects]uint32
	mons  [MaxModelObjects]monState
	ths   [MaxModelThreads]thState
}

// ExploreStats summarizes an exploration.
type ExploreStats struct {
	Programs    int
	States      int
	Transitions int
	Terminals   int
	// Coverage counts how often each transition kind of the protocol
	// was taken, proving the exploration actually visited the whole
	// transition table rather than vacuously passing.
	Coverage map[string]int
}

// explorer holds one program's exploration context.
type explorer struct {
	progs   [][]mop
	objects int
	mc      ModelConfig
	maxCnt  uint32

	visited map[mstate]struct{}
	stats   *ExploreStats
}

func shifted(t int) uint32 { return uint32(t+1) << core.IndexShift }

// miscFor seeds distinct nonzero misc bits per object, as object.Heap
// does, so the bit tricks are exercised against realistic values.
func miscFor(o int) uint32 { return [MaxModelObjects]uint32{0xA5, 0x5A}[o] }

// exploreProgram exhaustively explores every interleaving of the given
// per-thread programs, returning an error describing the first spec
// violation found (nil if the transition table conforms).
func exploreProgram(progs [][]mop, objects int, mc ModelConfig, stats *ExploreStats) error {
	bits := mc.CountBits
	if bits <= 0 || bits > 8 {
		bits = 8
	}
	e := &explorer{
		progs:   progs,
		objects: objects,
		mc:      mc,
		maxCnt:  uint32(1)<<bits - 1,
		visited: make(map[mstate]struct{}),
		stats:   stats,
	}
	var init mstate
	for o := 0; o < objects; o++ {
		init.words[o] = miscFor(o)
	}
	stats.Programs++
	if err := e.dfs(init, nil); err != nil {
		return fmt.Errorf("variant %v: spec violation\nprogram:\n%s\nschedule:\n  %s",
			mc.Variant, renderProgs(progs), err)
	}
	return nil
}

// renderProgs prints the per-thread programs.
func renderProgs(progs [][]mop) string {
	var b strings.Builder
	for t, ops := range progs {
		fmt.Fprintf(&b, "  t%d:", t+1)
		for _, op := range ops {
			fmt.Fprintf(&b, " %s", op)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// dfs explores all interleavings from s. path carries the transition
// labels taken so a violation can print its schedule.
func (e *explorer) dfs(s mstate, path []string) error {
	if _, ok := e.visited[s]; ok {
		return nil
	}
	e.visited[s] = struct{}{}
	e.stats.States++

	anyEnabled := false
	for t := range e.progs {
		next, kind, enabled, verr := e.step(s, t)
		if !enabled {
			continue
		}
		anyEnabled = true
		e.stats.Transitions++
		e.stats.Coverage[kind]++
		label := fmt.Sprintf("t%d:%s", t+1, kind)
		if verr != nil {
			return fmt.Errorf("%s\n  after: %s\n  at: %s", verr, strings.Join(path, " "), label)
		}
		if err := e.checkState(&next); err != nil {
			return fmt.Errorf("%s\n  after: %s %s", err, strings.Join(path, " "), label)
		}
		if err := e.dfs(next, append(path, label)); err != nil {
			return err
		}
	}
	if !anyEnabled {
		e.stats.Terminals++
	}
	return nil
}

// step computes thread t's single enabled transition from s, if any.
// The transition is deterministic per (state, thread): the only
// nondeterminism in the system is the interleaving choice, which dfs
// enumerates. verr reports protocol-internal assertions (the UnlkC&S
// unlock CAS failing, an unlock error at positive spec depth).
func (e *explorer) step(s mstate, t int) (next mstate, kind string, enabled bool, verr error) {
	th := &s.ths[t]
	prog := e.progs[t]
	if int(th.pc) >= len(prog) {
		return s, "", false, nil
	}
	op := prog[th.pc]
	o := int(op.obj)
	tid := shifted(t)
	complete := func() {
		th.pc++
		th.phase = 0
		th.loaded = 0
		th.spun = false
	}

	// Phase 2: contention-driven inflation pending (we won the CAS after
	// spinning and now publish a fat lock, §2.3.4's locality principle).
	if th.phase == 2 {
		s.mons[o] = monState{exists: true, owner: int8(t + 1), count: 1}
		s.words[o] = core.InflatedWord(uint32(o), s.words[o])
		complete()
		return s, "inflate-contention", true, nil
	}

	// Phase 0: load the header word (one atomic load).
	if th.phase == 0 {
		th.loaded = s.words[o]
		th.phase = 1
		return s, "load", true, nil
	}

	w := th.loaded
	if op.lock {
		switch {
		case core.IsInflated(w):
			m := &s.mons[o]
			switch m.owner {
			case 0:
				m.owner = int8(t + 1)
				m.count = 1
				th.depth[o]++
				complete()
				return s, "fat-enter", true, nil
			case int8(t + 1):
				m.count++
				th.depth[o]++
				complete()
				return s, "fat-reenter", true, nil
			default:
				return s, "", false, nil // queued on the monitor
			}

		case core.IsUnlocked(w):
			// The initial acquisition: the protocol's only CAS.
			if s.words[o] != w {
				th.phase = 0
				return s, "cas-fail", true, nil
			}
			s.words[o] = w | tid
			th.depth[o]++
			if th.spun {
				th.phase = 2 // inflate next (contention was observed)
				return s, "cas-acquire-contended", true, nil
			}
			complete()
			return s, "cas-acquire", true, nil

		case core.ThinOwner(w) == uint16(t+1):
			if cnt := core.ThinCount(w); cnt < e.maxCnt {
				// Nested lock: a plain store of the stale loaded word
				// plus one count unit — the discipline's soundness is
				// exactly what makes this safe, and exactly what the
				// explorer verifies.
				s.words[o] = w + core.CountUnit
				th.depth[o]++
				complete()
				return s, "nested-store", true, nil
			}
			// Count saturated: overflow inflation carrying the full
			// nesting depth into the fat lock.
			locks := e.maxCnt + 2
			if e.mc.OverflowOffByOne {
				locks-- // model-level seeded bug
			}
			s.mons[o] = monState{exists: true, owner: int8(t + 1), count: locks}
			s.words[o] = core.InflatedWord(uint32(o), w)
			th.depth[o]++
			complete()
			return s, "inflate-overflow", true, nil

		default:
			// Thin-locked by another thread: spin. The re-read is
			// enabled only once the word has changed; re-reading an
			// unchanged word reproduces the same state, so eliding it
			// loses no interleavings while keeping the graph finite.
			if s.words[o] == w {
				return s, "", false, nil
			}
			th.phase = 0
			th.spun = true
			return s, "spin-reload", true, nil
		}
	}

	// Unlock.
	switch {
	case core.IsInflated(w):
		m := &s.mons[o]
		if !m.exists {
			return s, "", true, fmt.Errorf("inflated word for obj %d without an allocated monitor", o)
		}
		if m.owner != int8(t+1) {
			if th.depth[o] != 0 {
				verr = fmt.Errorf("t%d got ErrIllegalMonitorState unlocking obj %d at spec depth %d", t+1, o, th.depth[o])
			}
			complete()
			return s, "unlock-err", true, verr
		}
		m.count--
		th.depth[o]--
		if m.count == 0 {
			m.owner = 0
			complete()
			return s, "fat-release", true, nil
		}
		complete()
		return s, "fat-exit", true, nil

	case core.ThinOwner(w) == uint16(t+1):
		if core.ThinCount(w) == 0 {
			// Final release: the paper's plain store (or, for the
			// UnlkC&S variant, a CAS that the discipline guarantees
			// can never fail — asserted here).
			if e.mc.Variant == core.VariantUnlockCAS && s.words[o] != w {
				return s, "unlock-cas", true, fmt.Errorf(
					"UnlkC&S unlock CAS failed: word %#x changed under owner t%d (loaded %#x)",
					s.words[o], t+1, w)
			}
			s.words[o] = w ^ tid
			th.depth[o]--
			complete()
			return s, "final-store", true, nil
		}
		s.words[o] = w - core.CountUnit
		th.depth[o]--
		complete()
		return s, "nested-unlock", true, nil

	default:
		// Unlocked or thin-locked by another thread: error.
		if th.depth[o] != 0 {
			verr = fmt.Errorf("t%d got ErrIllegalMonitorState unlocking obj %d at spec depth %d", t+1, o, th.depth[o])
		}
		complete()
		return s, "unlock-err", true, verr
	}
}

// checkState asserts the lock-word spec at one reachable state.
func (e *explorer) checkState(s *mstate) error {
	for o := 0; o < e.objects; o++ {
		w := s.words[o]
		holders := 0
		holder := -1
		for t := range e.progs {
			if s.ths[t].depth[o] > 0 {
				holders++
				holder = t
			}
		}
		if holders > 1 {
			return fmt.Errorf("mutual exclusion violated on obj %d: %d threads at depth > 0", o, holders)
		}
		switch {
		case core.IsInflated(w):
			m := s.mons[o]
			if !m.exists {
				return fmt.Errorf("obj %d: inflated word %#x but no monitor allocated", o, w)
			}
			switch {
			case m.owner == 0 && holders != 0:
				return fmt.Errorf("obj %d: monitor free but t%d has spec depth %d", o, holder+1, s.ths[holder].depth[o])
			case m.owner != 0:
				if holders != 1 || int(m.owner) != holder+1 {
					return fmt.Errorf("obj %d: monitor owned by t%d but spec holder is t%d", o, m.owner, holder+1)
				}
				if m.count != uint32(s.ths[holder].depth[o]) {
					return fmt.Errorf("obj %d: monitor count %d != spec depth %d of t%d",
						o, m.count, s.ths[holder].depth[o], holder+1)
				}
			}
		case core.IsUnlocked(w):
			if holders != 0 {
				return fmt.Errorf("obj %d: word unlocked (%#x) but t%d has spec depth %d",
					o, w, holder+1, s.ths[holder].depth[o])
			}
			if w&^core.MiscMask != 0 || w != miscFor(o) {
				return fmt.Errorf("obj %d: misc bits corrupted: %#x", o, w)
			}
		default:
			owner := int(core.ThinOwner(w))
			if owner < 1 || owner > len(e.progs) {
				return fmt.Errorf("obj %d: thin word %#x names nonexistent thread %d", o, w, owner)
			}
			if holders != 1 || holder+1 != owner {
				return fmt.Errorf("obj %d: thin word owned by t%d but spec holder is t%d (depth holders=%d)",
					o, owner, holder+1, holders)
			}
			if got, want := core.ThinCount(w)+1, uint32(s.ths[holder].depth[o]); got != want {
				return fmt.Errorf("obj %d: thin count encodes depth %d but spec depth is %d", o, got, want)
			}
			if w&core.MiscMask != miscFor(o) {
				return fmt.Errorf("obj %d: misc bits corrupted: %#x", o, w)
			}
		}
	}
	return nil
}

// ExploreAll enumerates every combination of per-thread programs of
// length 1..maxOps over the given object count (order-insensitive
// across threads, since threads are symmetric) and exhaustively
// explores each, returning aggregate statistics and the first violation
// found.
func ExploreAll(threads, maxOps, objects int, mc ModelConfig) (ExploreStats, error) {
	stats := ExploreStats{Coverage: make(map[string]int)}
	if threads < 1 || threads > MaxModelThreads {
		return stats, fmt.Errorf("check: threads must be 1..%d", MaxModelThreads)
	}
	if maxOps < 1 || maxOps > MaxModelOps {
		return stats, fmt.Errorf("check: maxOps must be 1..%d", MaxModelOps)
	}
	if objects < 1 || objects > MaxModelObjects {
		return stats, fmt.Errorf("check: objects must be 1..%d", MaxModelObjects)
	}
	if mc.Variant == core.VariantNOP {
		return stats, fmt.Errorf("check: VariantNOP removes locking and has no transition table to check")
	}
	seqs := allSeqs(maxOps, objects)
	idx := make([]int, threads)
	progs := make([][]mop, threads)
	var rec func(pos, min int) error
	rec = func(pos, min int) error {
		if pos == threads {
			for i, j := range idx {
				progs[i] = seqs[j]
			}
			return exploreProgram(progs, objects, mc, &stats)
		}
		for j := min; j < len(seqs); j++ {
			idx[pos] = j
			if err := rec(pos+1, j); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0, 0)
	return stats, err
}

// allSeqs returns every op sequence of length 1..maxOps over the
// lock/unlock alphabet of the given objects.
func allSeqs(maxOps, objects int) [][]mop {
	var alphabet []mop
	for o := 0; o < objects; o++ {
		alphabet = append(alphabet, mop{true, int8(o)}, mop{false, int8(o)})
	}
	var out [][]mop
	var cur []mop
	var rec func()
	rec = func() {
		if len(cur) > 0 {
			out = append(out, append([]mop(nil), cur...))
		}
		if len(cur) == maxOps {
			return
		}
		for _, a := range alphabet {
			cur = append(cur, a)
			rec()
			cur = cur[:len(cur)-1]
		}
	}
	rec()
	return out
}
