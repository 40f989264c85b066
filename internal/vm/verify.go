package vm

import "fmt"

// This file implements the bytecode verifier. On top of the classic
// stack/flow sanity pass it performs JVM §2.11.10-style *structured
// locking* verification by abstract interpretation: every execution
// path must exit exactly the monitors it entered, in LIFO order, and
// merge points must agree on the held-monitor stack. The analysis
// tracks the *provenance* of every operand-stack value so a
// monitorexit can be matched against the monitorenter that pushed the
// same reference:
//
//   - a value loaded by `aload N` carries provenance slot(N);
//   - a value allocated by `new`/`newarray` at pc P carries prov new(P)
//     (and keeps it through dup);
//   - anything else (getfield, aaload, invoke results, merged values)
//     is unknown.
//
// monitorenter keys the pushed monitor by that provenance. A
// monitorexit must match the innermost held key exactly — this is the
// javac compilation discipline (`astore tmp; aload tmp; monitorenter;
// ... aload tmp; monitorexit`) and everything the minijava compiler
// emits. Entering a monitor through an unknown-provenance reference
// poisons the key: no exit can ever match it, so such a region can
// only verify if the method never exits or completes afterwards —
// in practice it is rejected at the first exit or return.
//
// Soundness of the slot keying depends on two extra rules: storing to
// a local slot whose monitor key is currently held is rejected (the
// exit would unlock a different object than the enter locked), and a
// store to slot N downgrades any stacked slot(N) values to unknown.
//
// Exception edges are modeled precisely for this VM: the only abrupt
// sources are athrow and invoke of a method that may throw (computed
// as an interprocedural least fixpoint); runtime traps such as nil
// dereference abort the whole Run and never reach handlers. An edge
// goes to the first handler covering the pc — matching the runtime's
// first-covering-handler dispatch — with the entry monitor stack and
// an operand stack holding just the thrown value. A throwing pc with
// no covering handler unwinds to the caller, which is an error if any
// (explicit) monitor is held.

// Value provenance kinds.
const (
	provUnknown uint8 = iota
	provSlot          // loaded from local slot idx
	provNew           // allocated by new/newarray at pc idx
	provPoison        // monitor key for an unknown-provenance enter at pc idx
)

// absVal is one abstract operand-stack value: a provenance plus an
// optional class (index into Program.Classes, -1 unknown).
type absVal struct {
	kind  uint8
	idx   int32
	class int32
}

func unknownVal() absVal { return absVal{kind: provUnknown, idx: 0, class: -1} }

func (v absVal) sameKey(w absVal) bool { return v.kind == w.kind && v.idx == w.idx }

func (v absVal) String() string {
	switch v.kind {
	case provSlot:
		return fmt.Sprintf("slot %d", v.idx)
	case provNew:
		return fmt.Sprintf("new@%d", v.idx)
	case provPoison:
		return fmt.Sprintf("untracked ref (entered at pc %d)", v.idx)
	default:
		return "unknown ref"
	}
}

// monEntry is one held monitor: the key it was entered under and the
// pc of its monitorenter (-1 when keys from different paths merged).
type monEntry struct {
	key     absVal
	enterPC int32
}

// absState is the abstract machine state flowing into one pc.
type absState struct {
	stack  []absVal
	mons   []monEntry
	locals []int32 // class index per local slot, -1 unknown
}

func (s *absState) clone() *absState {
	c := &absState{
		stack:  append([]absVal(nil), s.stack...),
		mons:   append([]monEntry(nil), s.mons...),
		locals: append([]int32(nil), s.locals...),
	}
	return c
}

// join merges incoming state in into s, reporting whether s changed.
// Operand stacks must agree in depth (checked by the caller); values
// whose provenance disagrees join to unknown. Monitor stacks must
// agree in depth and keys — structured locking requires every path
// into a pc to hold the same monitors in the same order.
func (s *absState) join(in *absState) (changed bool, err error) {
	if len(s.mons) != len(in.mons) {
		return false, fmt.Errorf("reached holding %d and %d monitors", len(s.mons), len(in.mons))
	}
	for i := range s.mons {
		if !s.mons[i].key.sameKey(in.mons[i].key) {
			return false, fmt.Errorf("monitor stacks disagree: %s vs %s at depth %d",
				s.mons[i].key, in.mons[i].key, i)
		}
		if s.mons[i].enterPC != in.mons[i].enterPC && s.mons[i].enterPC != -1 {
			s.mons[i].enterPC = -1
			changed = true
		}
		if c := joinClass(s.mons[i].key.class, in.mons[i].key.class); c != s.mons[i].key.class {
			s.mons[i].key.class = c
			changed = true
		}
	}
	for i := range s.stack {
		v, w := s.stack[i], in.stack[i]
		if !v.sameKey(w) {
			if v.kind != provUnknown {
				s.stack[i].kind, s.stack[i].idx = provUnknown, 0
				changed = true
			}
		}
		if c := joinClass(s.stack[i].class, w.class); c != s.stack[i].class {
			s.stack[i].class = c
			changed = true
		}
	}
	for i := range s.locals {
		if c := joinClass(s.locals[i], in.locals[i]); c != s.locals[i] {
			s.locals[i] = c
			changed = true
		}
	}
	return changed, nil
}

func joinClass(a, b int32) int32 {
	if a == b {
		return a
	}
	return -1
}

// mayThrowSet computes, per method index, whether the method can
// complete abruptly: it contains an athrow (or a call to a
// may-throw method) at a pc not covered by one of its own handlers.
// Least fixpoint over the call graph; recursion converges because the
// set only grows.
func mayThrowSet(p *Program) []bool {
	may := make([]bool, len(p.Methods))
	covered := func(m *Method, pc int) bool {
		for _, h := range m.Handlers {
			if pc >= h.StartPC && pc < h.EndPC {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i, m := range p.Methods {
			if may[i] {
				continue
			}
			for pc, in := range m.Code {
				escapes := in.Op == OpThrow ||
					(in.Op == OpInvoke && int(in.A) < len(may) && may[in.A])
				if escapes && !covered(m, pc) {
					may[i] = true
					changed = true
					break
				}
			}
		}
	}
	return may
}

// MonitorFact describes one monitor as the verifier understood it:
// the class of the locked object when statically known, the local
// slot the reference was loaded from (slot-keyed monitors), or the
// allocating pc (new-keyed monitors). Unknown fields are -1.
type MonitorFact struct {
	EnterPC int
	Line    int32
	Class   int32
	Slot    int32
	NewPC   int32
}

// MethodMonitorFacts is the structured-locking verifier's view of one
// method, exported for the static lock-order analysis
// (internal/staticlock).
type MethodMonitorFacts struct {
	Method *Method
	// HeldAt[pc] is the monitor stack on entry to pc (outermost
	// first), nil where pc is unreachable. Excludes the implicit
	// monitor of a synchronized method.
	HeldAt [][]MonitorFact
	// EnterAt maps each reachable monitorenter pc to the identity of
	// the monitor it pushes.
	EnterAt map[int]MonitorFact
}

func verify(p *Program, m *Method) error {
	return verifyMode(p, m, false)
}

// verifyMode runs verification; skipSL drops the structured-locking
// layer (monitor balance, merge agreement, throw/return-with-monitors)
// while keeping every classic check. Tests use skipSL to reach the
// runtime illegal-monitor-state traps.
func verifyMode(p *Program, m *Method, skipSL bool) error {
	_, err := verifyCore(p, m, skipSL, nil)
	return err
}

// CollectMonitorFacts verifies m with the structured-locking layer on
// and returns the monitor facts the fixpoint converged to.
func CollectMonitorFacts(p *Program, m *Method) (*MethodMonitorFacts, error) {
	facts := &MethodMonitorFacts{Method: m, EnterAt: make(map[int]MonitorFact)}
	states, err := verifyCore(p, m, false, facts)
	if err != nil {
		return nil, err
	}
	facts.HeldAt = make([][]MonitorFact, len(m.Code))
	for pc, st := range states {
		if st == nil {
			continue
		}
		held := make([]MonitorFact, 0, len(st.mons))
		for _, me := range st.mons {
			held = append(held, monitorFactOf(m, me))
		}
		facts.HeldAt[pc] = held
	}
	return facts, nil
}

func monitorFactOf(m *Method, me monEntry) MonitorFact {
	f := MonitorFact{
		EnterPC: int(me.enterPC),
		Line:    m.LineFor(int(me.enterPC)),
		Class:   me.key.class,
		Slot:    -1,
		NewPC:   -1,
	}
	switch me.key.kind {
	case provSlot:
		f.Slot = me.key.idx
	case provNew:
		f.NewPC = me.key.idx
	}
	return f
}

// verifyCore is the shared fixpoint engine. It returns the converged
// per-pc entry states (nil entries are unreachable) so callers can
// extract monitor facts.
func verifyCore(p *Program, m *Method, skipSL bool, facts *MethodMonitorFacts) ([]*absState, error) {
	n := len(m.Code)
	if n == 0 {
		return nil, fmt.Errorf("empty code")
	}
	if m.NumArgs > m.MaxLocals {
		return nil, fmt.Errorf("NumArgs %d exceeds MaxLocals %d", m.NumArgs, m.MaxLocals)
	}
	if m.Sync() && !m.Static() && m.NumArgs < 1 {
		return nil, fmt.Errorf("synchronized instance method needs a receiver argument")
	}
	if m.Sync() && m.Static() && m.Class == nil {
		return nil, fmt.Errorf("static synchronized method needs a class")
	}

	// Exception table sanity: ranges and handler targets must be in
	// bounds, with non-empty ranges.
	for i, h := range m.Handlers {
		if h.StartPC < 0 || h.EndPC > n || h.StartPC >= h.EndPC {
			return nil, fmt.Errorf("handler %d: bad range [%d,%d) over %d instructions", i, h.StartPC, h.EndPC, n)
		}
		if h.HandlerPC < 0 || h.HandlerPC >= n {
			return nil, fmt.Errorf("handler %d: target %d outside [0,%d)", i, h.HandlerPC, n)
		}
	}

	// Static pre-pass: every instruction's immediate operands must be
	// valid even if the instruction turns out to be unreachable, as in
	// the JVM's bytecode verifier.
	for pc, in := range m.Code {
		switch in.Op {
		case OpGoto, OpIfICmpLT, OpIfICmpGE, OpIfEQ, OpIfNE:
			if int(in.A) < 0 || int(in.A) >= n {
				return nil, fmt.Errorf("pc %d (%s): jump target outside [0,%d)", pc, in, n)
			}
		case OpIload, OpIstore, OpIinc, OpAload, OpAstore:
			if int(in.A) < 0 || int(in.A) >= m.MaxLocals {
				return nil, fmt.Errorf("pc %d (%s): local %d outside MaxLocals %d", pc, in, in.A, m.MaxLocals)
			}
		case OpNew:
			if int(in.A) < 0 || int(in.A) >= len(p.Classes) {
				return nil, fmt.Errorf("pc %d: new of unknown class %d", pc, in.A)
			}
		case OpInvoke:
			if int(in.A) < 0 || int(in.A) >= len(p.Methods) {
				return nil, fmt.Errorf("pc %d: invoke of unknown method %d", pc, in.A)
			}
		case OpNewArray:
			if in.A < 0 {
				return nil, fmt.Errorf("pc %d: negative array length %d", pc, in.A)
			}
		}
	}

	// ef decorates an error with the pc and, when known, source line.
	ef := func(pc int, format string, args ...any) error {
		loc := fmt.Sprintf("pc %d", pc)
		if l := m.LineFor(pc); l > 0 {
			loc = fmt.Sprintf("pc %d (line %d)", pc, l)
		}
		return fmt.Errorf("%s (%s): %s", loc, m.Code[pc], fmt.Sprintf(format, args...))
	}

	may := mayThrowSet(p)
	firstHandler := func(pc int) int {
		for _, h := range m.Handlers {
			if pc >= h.StartPC && pc < h.EndPC {
				return h.HandlerPC
			}
		}
		return -1
	}

	// Entry state: parameter slots carry their declared classes when
	// the compiler provided them.
	entry := &absState{locals: make([]int32, m.MaxLocals)}
	for i := range entry.locals {
		entry.locals[i] = -1
	}
	for i := 0; i < m.NumArgs && i < len(m.ParamClasses); i++ {
		entry.locals[i] = int32(m.ParamClasses[i])
	}
	if !m.Static() && m.NumArgs > 0 && m.Class != nil {
		if ci, ok := p.ClassIndex(m.Class.Name); ok {
			entry.locals[0] = int32(ci)
		}
	}

	states := make([]*absState, n)
	maxDepth := 0
	var work []int
	inWork := make([]bool, n)

	// flow merges state st into pc, enqueueing it on change.
	flow := func(fromPC, pc int, st *absState) error {
		if cur := states[pc]; cur != nil {
			if len(cur.stack) != len(st.stack) {
				return fmt.Errorf("pc %d reached with stack depths %d and %d", pc, len(cur.stack), len(st.stack))
			}
			changed, err := cur.join(st)
			if err != nil {
				return fmt.Errorf("pc %d: %w (paths via pc %d)", pc, err, fromPC)
			}
			if changed && !inWork[pc] {
				work = append(work, pc)
				inWork[pc] = true
			}
			return nil
		}
		states[pc] = st.clone()
		if !inWork[pc] {
			work = append(work, pc)
			inWork[pc] = true
		}
		return nil
	}

	if err := flow(0, 0, entry); err != nil {
		return nil, err
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false

		in := m.Code[pc]
		st := states[pc].clone()
		entryMons := append([]monEntry(nil), st.mons...)

		pops, pushes := in.stackEffect()
		if in.Op == OpInvoke {
			callee := p.Methods[in.A]
			pops = callee.NumArgs
			if callee.ReturnsValue() {
				pushes = 1
			} else {
				pushes = 0
			}
		}
		if len(st.stack) < pops {
			return nil, ef(pc, "stack underflow (depth %d, pops %d)", len(st.stack), pops)
		}
		popped := make([]absVal, pops)
		copy(popped, st.stack[len(st.stack)-pops:])
		st.stack = st.stack[:len(st.stack)-pops]

		// Default pushes are unknown; specific opcodes refine below.
		for i := 0; i < pushes; i++ {
			st.stack = append(st.stack, unknownVal())
		}
		if d := len(st.stack); d > maxDepth {
			maxDepth = d
		}

		holdsSlot := func(slot int32) bool {
			for _, me := range st.mons {
				if me.key.kind == provSlot && me.key.idx == slot {
					return true
				}
			}
			return false
		}

		switch in.Op {
		case OpAload:
			st.stack[len(st.stack)-1] = absVal{kind: provSlot, idx: in.A, class: st.locals[in.A]}
		case OpNew:
			st.stack[len(st.stack)-1] = absVal{kind: provNew, idx: int32(pc), class: in.A}
		case OpNewArray:
			st.stack[len(st.stack)-1] = absVal{kind: provNew, idx: int32(pc), class: -1}
		case OpDup:
			// stackEffect says pop 1 push 2; restore the original value
			// in both positions.
			st.stack[len(st.stack)-2] = popped[0]
			st.stack[len(st.stack)-1] = popped[0]
		case OpAstore, OpIstore:
			if !skipSL && holdsSlot(in.A) {
				return nil, ef(pc, "store into local %d while its monitor is held", in.A)
			}
			if in.Op == OpAstore {
				st.locals[in.A] = popped[0].class
				// Any stacked value that was keyed to this slot no
				// longer matches what the slot holds.
				for i, v := range st.stack {
					if v.kind == provSlot && v.idx == in.A {
						st.stack[i].kind, st.stack[i].idx = provUnknown, 0
					}
				}
			} else {
				st.locals[in.A] = -1
			}
		case OpMonitorEnter:
			if !skipSL {
				key := popped[0]
				if key.kind == provUnknown {
					key = absVal{kind: provPoison, idx: int32(pc), class: popped[0].class}
				}
				st.mons = append(st.mons, monEntry{key: key, enterPC: int32(pc)})
				if facts != nil {
					facts.EnterAt[pc] = monitorFactOf(m, monEntry{key: key, enterPC: int32(pc)})
				}
			}
		case OpMonitorExit:
			if !skipSL {
				if len(st.mons) == 0 {
					return nil, ef(pc, "monitorexit with no monitor held")
				}
				top := st.mons[len(st.mons)-1]
				if !top.key.sameKey(popped[0]) {
					return nil, ef(pc, "monitorexit of %s does not match innermost held monitor (%s)",
						popped[0], top.key)
				}
				st.mons = st.mons[:len(st.mons)-1]
			}
		case OpIReturn, OpAReturn:
			if !m.ReturnsValue() {
				return nil, ef(pc, "value return from void method")
			}
			if len(st.stack) != 0 {
				return nil, ef(pc, "return leaves %d values on stack", len(st.stack))
			}
			if !skipSL && len(st.mons) > 0 {
				return nil, ef(pc, "return with %d monitor(s) still held (innermost %s, entered at pc %d)",
					len(st.mons), st.mons[len(st.mons)-1].key, st.mons[len(st.mons)-1].enterPC)
			}
		case OpReturn:
			if m.ReturnsValue() {
				return nil, ef(pc, "void return from value-returning method")
			}
			if len(st.stack) != 0 {
				return nil, ef(pc, "return leaves %d values on stack", len(st.stack))
			}
			if !skipSL && len(st.mons) > 0 {
				return nil, ef(pc, "return with %d monitor(s) still held (innermost %s, entered at pc %d)",
					len(st.mons), st.mons[len(st.mons)-1].key, st.mons[len(st.mons)-1].enterPC)
			}
		}

		// Exception edge: athrow always throws; invoke throws iff the
		// callee may. The thrown value travels alone on the operand
		// stack; monitors held at the throwing pc are still held in
		// the handler (which is how the javac pattern re-releases and
		// rethrows).
		if in.Op == OpThrow || (in.Op == OpInvoke && may[in.A]) {
			if h := firstHandler(pc); h >= 0 {
				// The handler starts with the thrown value on the
				// stack, so its frame needs that slot even where the
				// handler's first instruction pops it.
				maxDepth = max(maxDepth, 1)
				hs := &absState{
					stack:  []absVal{unknownVal()},
					mons:   entryMons,
					locals: st.locals,
				}
				if err := flow(pc, h, hs); err != nil {
					return nil, err
				}
			} else if !skipSL && len(entryMons) > 0 {
				kind := "athrow"
				if in.Op == OpInvoke {
					kind = fmt.Sprintf("call to may-throw %s", p.Methods[in.A].QualifiedName())
				}
				return nil, ef(pc, "%s may unwind with %d monitor(s) still held (innermost %s, entered at pc %d)",
					kind, len(entryMons), entryMons[len(entryMons)-1].key, entryMons[len(entryMons)-1].enterPC)
			}
		}

		// Normal successors.
		var target int
		isJump, falls := false, true
		switch in.Op {
		case OpGoto:
			target, isJump, falls = int(in.A), true, false
		case OpIfICmpLT, OpIfICmpGE, OpIfEQ, OpIfNE:
			target, isJump = int(in.A), true
		case OpReturn, OpIReturn, OpAReturn, OpThrow:
			falls = false
		}
		if isJump {
			if err := flow(pc, target, st); err != nil {
				return nil, err
			}
		}
		if falls {
			if pc+1 >= n {
				return nil, ef(pc, "control falls off the end")
			}
			if err := flow(pc, pc+1, st); err != nil {
				return nil, err
			}
		}
	}

	m.maxStack = maxDepth
	return states, nil
}
