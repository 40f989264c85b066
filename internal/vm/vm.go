package vm

import (
	"fmt"
	"sync/atomic"

	"thinlock/internal/lockapi"
	"thinlock/internal/lockevent"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// Value is one operand-stack or local slot: an integer or a reference.
type Value struct {
	I   int64
	Ref *Obj
}

// IntValue makes an integer Value.
func IntValue(i int64) Value { return Value{I: i} }

// RefValue makes a reference Value.
func RefValue(o *Obj) Value { return Value{Ref: o} }

// Obj is a VM heap object: a lockable identity plus field slots. Arrays
// are Objs whose Fields are the elements.
type Obj struct {
	*object.Object
	Fields []Value
}

// Class describes an object layout.
type Class struct {
	Name      string
	NumFields int
	// classObj is the object static synchronized methods lock.
	classObj *Obj
}

// MethodFlags control method dispatch behaviour.
type MethodFlags uint8

const (
	// FlagSync marks a synchronized method: the receiver (or the class
	// object for static methods) is locked for the method's duration.
	FlagSync MethodFlags = 1 << iota
	// FlagStatic marks a method with no receiver.
	FlagStatic
	// FlagReturnsValue marks a method ending in ireturn/areturn.
	FlagReturnsValue
)

// Handler is one exception-table entry: it catches anything thrown while
// pc is in [StartPC, EndPC) and transfers control to HandlerPC with the
// operand stack cleared to just the thrown value, as in the JVM.
type Handler struct {
	StartPC   int
	EndPC     int
	HandlerPC int
}

// Method is executable code.
type Method struct {
	Name  string
	Class *Class
	Flags MethodFlags
	// NumArgs counts argument slots, including the receiver for
	// instance methods (receiver is locals[0]).
	NumArgs   int
	MaxLocals int
	Code      []Instr
	// Handlers is the exception table, searched in order; the first
	// entry covering the throwing pc wins.
	Handlers []Handler
	// Lines maps pc to a source line (1-based; 0 = unknown). Optional;
	// the minijava compiler fills it so verifier errors and runtime
	// traps cite source lines instead of raw pcs.
	Lines []int32
	// ParamClasses gives, per argument slot (including the receiver),
	// the class index of the reference parameter, or -1 for ints and
	// untyped references. Optional; used by the static lock-order
	// analysis to name the classes behind slot-keyed monitors.
	ParamClasses []int

	index    int // in Program.Methods
	maxStack int // computed by the verifier
}

// LineFor returns the source line for pc, or 0 when unknown.
func (m *Method) LineFor(pc int) int32 {
	if pc >= 0 && pc < len(m.Lines) {
		return m.Lines[pc]
	}
	return 0
}

// at renders a trap location: " (line N, pc P)" when the line is known,
// " (pc P)" otherwise. Used to make runtime trap messages citable.
func (m *Method) at(pc int) string {
	if l := m.LineFor(pc); l > 0 {
		return fmt.Sprintf(" (line %d, pc %d)", l, pc)
	}
	return fmt.Sprintf(" (pc %d)", pc)
}

// Sync reports whether the method is synchronized.
func (m *Method) Sync() bool { return m.Flags&FlagSync != 0 }

// Static reports whether the method is static.
func (m *Method) Static() bool { return m.Flags&FlagStatic != 0 }

// ReturnsValue reports whether the method pushes a result for its caller.
func (m *Method) ReturnsValue() bool { return m.Flags&FlagReturnsValue != 0 }

// Program is a linked set of classes and methods.
type Program struct {
	Classes []*Class
	Methods []*Method

	classByName  map[string]int
	methodByName map[string]int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		classByName:  make(map[string]int),
		methodByName: make(map[string]int),
	}
}

// AddClass registers a class and returns its index.
func (p *Program) AddClass(c *Class) int {
	idx := len(p.Classes)
	p.Classes = append(p.Classes, c)
	p.classByName[c.Name] = idx
	return idx
}

// AddMethod registers a method and returns its index. Methods are named
// "Class.method" in the lookup table (or just the name for static
// methods without a class).
func (p *Program) AddMethod(m *Method) int {
	idx := len(p.Methods)
	m.index = idx
	p.Methods = append(p.Methods, m)
	p.methodByName[m.QualifiedName()] = idx
	return idx
}

// QualifiedName returns "Class.name" (or the bare name with no class).
func (m *Method) QualifiedName() string {
	if m.Class != nil {
		return m.Class.Name + "." + m.Name
	}
	return m.Name
}

// ClassIndex returns the index of the named class.
func (p *Program) ClassIndex(name string) (int, bool) {
	i, ok := p.classByName[name]
	return i, ok
}

// MethodIndex returns the index of the named ("Class.method") method.
func (p *Program) MethodIndex(name string) (int, bool) {
	i, ok := p.methodByName[name]
	return i, ok
}

// Method returns the named method, or nil.
func (p *Program) Method(name string) *Method {
	if i, ok := p.methodByName[name]; ok {
		return p.Methods[i]
	}
	return nil
}

// VM executes programs over a heap and a lock implementation.
type VM struct {
	prog      *Program
	locker    lockapi.Locker
	heap      *object.Heap
	stepLimit int64
	skipSL    bool
	// frames is the frame stack a Run borrows; nil while one is out.
	frames atomic.Pointer[frameStack]
}

// frameStack holds the interpreter frames of one Run, as a JVM thread
// stack does. A frame is its method's locals followed by its operand
// stack, and a callee's frame starts at its caller's top NumArgs operand
// slots, so the arguments become the callee's first locals in place.
type frameStack struct {
	buf  []Value
	used int // buf[:used] may hold values the Run wrote
}

// frame hands out the n slots at base. When they do not fit it replaces
// the buffer with a larger one, and frames already handed out keep using
// the old one. No live frame extends past base except by the arguments
// it passes, which exec copies across when the buffers differ.
func (s *frameStack) frame(base, n int) []Value {
	end := base + n
	if end > len(s.buf) {
		s.buf = make([]Value, max(2*len(s.buf), end))
	}
	s.used = max(s.used, end)
	return s.buf[base:end:end]
}

// release clears the slots the Run used, so a frame stack parked in the
// VM keeps no dead object reachable.
func (s *frameStack) release() {
	clear(s.buf[:s.used])
	s.used = 0
}

// Option configures a VM at construction time.
type Option func(*VM)

// WithStepLimit bounds the number of instructions a single Run may
// execute (0 = unlimited). Exceeding the limit traps with a "step limit
// exceeded" error; the fuzzers use it to run arbitrary verified
// programs without hanging on infinite loops.
func WithStepLimit(n int64) Option { return func(v *VM) { v.stepLimit = n } }

// WithoutStructuredLocking disables the structured-locking layer of the
// verifier, keeping only the classic stack/flow checks. Tests use it to
// exercise the runtime illegal-monitor-state traps that the static
// verifier would otherwise reject at load time.
func WithoutStructuredLocking() Option { return func(v *VM) { v.skipSL = true } }

// New creates a VM, verifying the program's methods. Class objects (for
// static synchronized methods) are allocated here.
func New(prog *Program, locker lockapi.Locker, heap *object.Heap, opts ...Option) (*VM, error) {
	v := &VM{prog: prog, locker: locker, heap: heap}
	for _, o := range opts {
		o(v)
	}
	for _, m := range prog.Methods {
		if err := verifyMode(prog, m, v.skipSL); err != nil {
			return nil, fmt.Errorf("vm: verify %s: %w", m.QualifiedName(), err)
		}
	}
	for _, c := range prog.Classes {
		c.classObj = v.newObj(c.Name+"<class>", 0)
	}
	return v, nil
}

// Program returns the VM's program.
func (v *VM) Program() *Program { return v.prog }

// Locker returns the VM's lock implementation.
func (v *VM) Locker() lockapi.Locker { return v.locker }

// newObj allocates a VM object.
func (v *VM) newObj(class string, fields int) *Obj {
	return &Obj{Object: v.heap.New(class), Fields: make([]Value, fields)}
}

// NewInstance allocates an instance of the named class for host code.
func (v *VM) NewInstance(class string) (*Obj, error) {
	i, ok := v.prog.ClassIndex(class)
	if !ok {
		return nil, fmt.Errorf("vm: unknown class %q", class)
	}
	c := v.prog.Classes[i]
	return v.newObj(c.Name, c.NumFields), nil
}

// NewArray allocates a reference array for host code.
func (v *VM) NewArray(n int) *Obj { return v.newObj("[]", n) }

// execError carries interpreter failures through panics; Run converts
// them to errors.
type execError struct{ err error }

func throwf(format string, args ...any) {
	panic(execError{fmt.Errorf(format, args...)})
}

// Run executes the named method on thread t with the given arguments and
// returns its result (zero Value for void methods).
func (v *VM) Run(t *threading.Thread, methodName string, args ...Value) (res Value, err error) {
	m := v.prog.Method(methodName)
	if m == nil {
		return Value{}, fmt.Errorf("vm: unknown method %q", methodName)
	}
	if len(args) != m.NumArgs {
		return Value{}, fmt.Errorf("vm: %s: got %d args, want %d", methodName, len(args), m.NumArgs)
	}
	// Borrow the VM's frame stack; a concurrent Run finds none and
	// builds its own.
	fs := v.frames.Swap(nil)
	if fs == nil {
		fs = new(frameStack)
	}
	defer func() {
		fs.release()
		v.frames.Store(fs)
		if r := recover(); r != nil {
			if e, ok := r.(execError); ok {
				err = fmt.Errorf("vm: %s: %w", methodName, e.err)
				return
			}
			panic(r)
		}
	}()
	var steps int64
	res, threw := v.exec(t, fs, m, 0, args, &steps)
	if threw {
		return Value{}, fmt.Errorf("vm: %s: uncaught exception %d", methodName, res.I)
	}
	return res, nil
}

// exec interprets one method activation, whose frame starts at base on
// fs. Callee activations recurse. threw reports abrupt completion; the
// returned Value is then the thrown exception value. A synchronized
// method's monitor is released on both normal and abrupt completion, as
// required by the JVM specification.
func (v *VM) exec(t *threading.Thread, fs *frameStack, m *Method, base int, args []Value, steps *int64) (result Value, threw bool) {
	frame := fs.frame(base, m.MaxLocals+m.maxStack)
	locals := frame[:m.MaxLocals]
	// An invoke passes its arguments in place. They need a copy only
	// from Run's caller, or when the buffer grew under the caller.
	if m.NumArgs > 0 && &locals[0] != &args[0] {
		copy(locals, args)
	}
	clear(locals[m.NumArgs:])
	stack := frame[m.MaxLocals:]
	sp := 0

	// Synchronized method prologue: lock the receiver, or the class
	// object for a static method (§1: "the object must be locked for
	// the duration of the method's execution").
	var syncObj *Obj
	if m.Sync() {
		if m.Static() {
			syncObj = m.Class.classObj
		} else {
			syncObj = locals[0].Ref
			if syncObj == nil {
				throwf("%s: synchronized call on nil receiver", m.QualifiedName())
			}
		}
		if lockevent.SiteFrames() {
			// Attribute the prologue acquisition to the method with the
			// sentinel pc -1 (there is no monitorenter bytecode for a
			// synchronized method's entry).
			t.PublishFrame(m.QualifiedName(), -1)
			v.locker.Lock(t, syncObj.Object)
			t.ClearFrame()
		} else {
			v.locker.Lock(t, syncObj.Object)
		}
	}
	unlockSync := func() {
		if syncObj != nil {
			if err := v.locker.Unlock(t, syncObj.Object); err != nil {
				throwf("%s: illegal monitor state at method epilogue unlock: %v", m.QualifiedName(), err)
			}
		}
	}

	pop := func() Value {
		sp--
		return stack[sp]
	}
	push := func(val Value) {
		stack[sp] = val
		sp++
	}

	// throwTo dispatches a thrown value from the instruction at fromPC:
	// it returns the handler pc, or -1 to propagate to the caller.
	throwTo := func(fromPC int) int {
		for _, h := range m.Handlers {
			if fromPC >= h.StartPC && fromPC < h.EndPC {
				return h.HandlerPC
			}
		}
		return -1
	}
	// doThrow implements abrupt control transfer for value ex thrown at
	// fromPC, returning (newPC, propagate).
	doThrow := func(ex Value, fromPC int) (int, bool) {
		if h := throwTo(fromPC); h >= 0 {
			sp = 0
			push(ex)
			return h, false
		}
		return 0, true
	}

	pc := 0
	for {
		if v.stepLimit > 0 {
			*steps++
			if *steps > v.stepLimit {
				throwf("%s: step limit %d exceeded%s", m.QualifiedName(), v.stepLimit, m.at(pc))
			}
		}
		in := m.Code[pc]
		pc++
		switch in.Op {
		case OpNop:
		case OpIconst:
			push(IntValue(int64(in.A)))
		case OpIload:
			push(IntValue(locals[in.A].I))
		case OpIstore:
			locals[in.A] = IntValue(pop().I)
		case OpIinc:
			locals[in.A].I += int64(in.B)
		case OpIadd:
			b, a := pop(), pop()
			push(IntValue(a.I + b.I))
		case OpIsub:
			b, a := pop(), pop()
			push(IntValue(a.I - b.I))
		case OpImul:
			b, a := pop(), pop()
			push(IntValue(a.I * b.I))
		case OpDup:
			push(stack[sp-1])
		case OpPop:
			pop()
		case OpGoto:
			pc = int(in.A)
		case OpIfICmpLT:
			b, a := pop(), pop()
			if a.I < b.I {
				pc = int(in.A)
			}
		case OpIfICmpGE:
			b, a := pop(), pop()
			if a.I >= b.I {
				pc = int(in.A)
			}
		case OpIfEQ:
			if pop().I == 0 {
				pc = int(in.A)
			}
		case OpIfNE:
			if pop().I != 0 {
				pc = int(in.A)
			}
		case OpAload:
			push(locals[in.A])
		case OpAstore:
			locals[in.A] = pop()
		case OpNew:
			c := v.prog.Classes[in.A]
			push(RefValue(v.newObj(c.Name, c.NumFields)))
		case OpNewArray:
			push(RefValue(v.newObj("[]", int(in.A))))
		case OpALoadIdx:
			idx, arr := pop(), pop()
			if arr.Ref == nil {
				throwf("aaload on nil array%s", m.at(pc-1))
			}
			if idx.I < 0 || idx.I >= int64(len(arr.Ref.Fields)) {
				throwf("aaload index %d outside [0,%d)%s", idx.I, len(arr.Ref.Fields), m.at(pc-1))
			}
			push(arr.Ref.Fields[idx.I])
		case OpAStoreIdx:
			val, idx, arr := pop(), pop(), pop()
			if arr.Ref == nil {
				throwf("aastore on nil array%s", m.at(pc-1))
			}
			if idx.I < 0 || idx.I >= int64(len(arr.Ref.Fields)) {
				throwf("aastore index %d outside [0,%d)%s", idx.I, len(arr.Ref.Fields), m.at(pc-1))
			}
			arr.Ref.Fields[idx.I] = val
		case OpGetField:
			ref := pop()
			if ref.Ref == nil {
				throwf("getfield on nil reference%s", m.at(pc-1))
			}
			if int(in.A) < 0 || int(in.A) >= len(ref.Ref.Fields) {
				throwf("getfield %d outside %q's %d fields%s", in.A, ref.Ref.Class(), len(ref.Ref.Fields), m.at(pc-1))
			}
			push(ref.Ref.Fields[in.A])
		case OpPutField:
			val, ref := pop(), pop()
			if ref.Ref == nil {
				throwf("putfield on nil reference%s", m.at(pc-1))
			}
			if int(in.A) < 0 || int(in.A) >= len(ref.Ref.Fields) {
				throwf("putfield %d outside %q's %d fields%s", in.A, ref.Ref.Class(), len(ref.Ref.Fields), m.at(pc-1))
			}
			ref.Ref.Fields[in.A] = val
		case OpMonitorEnter:
			ref := pop()
			if ref.Ref == nil {
				throwf("monitorenter on nil reference%s", m.at(pc-1))
			}
			lockevent.Emit(lockevent.VMEnter, t, ref.Ref.Object)
			if lockevent.SiteFrames() {
				// Publish the bytecode site (pc was already advanced past
				// this instruction) so a slow-path acquisition is
				// attributed to "Class.method@pc" instead of interpreter
				// internals.
				t.PublishFrame(m.QualifiedName(), int32(pc-1))
				v.locker.Lock(t, ref.Ref.Object)
				t.ClearFrame()
				break
			}
			v.locker.Lock(t, ref.Ref.Object)
		case OpMonitorExit:
			ref := pop()
			if ref.Ref == nil {
				throwf("monitorexit on nil reference%s", m.at(pc-1))
			}
			lockevent.Emit(lockevent.VMExit, t, ref.Ref.Object)
			if err := v.locker.Unlock(t, ref.Ref.Object); err != nil {
				throwf("illegal monitor state at monitorexit%s: %v", m.at(pc-1), err)
			}
		case OpInvoke:
			callee := v.prog.Methods[in.A]
			sp -= callee.NumArgs
			res, calleeThrew := v.exec(t, fs, callee, base+m.MaxLocals+sp, stack[sp:sp+callee.NumArgs], steps)
			if calleeThrew {
				newPC, propagate := doThrow(res, pc-1)
				if propagate {
					unlockSync()
					return res, true
				}
				pc = newPC
				continue
			}
			if callee.ReturnsValue() {
				push(res)
			}
		case OpThrow:
			ex := pop()
			newPC, propagate := doThrow(ex, pc-1)
			if propagate {
				unlockSync()
				return ex, true
			}
			pc = newPC
		case OpReturn:
			unlockSync()
			return Value{}, false
		case OpIReturn, OpAReturn:
			res := pop()
			unlockSync()
			return res, false
		default:
			throwf("undefined opcode %v at pc %d", in.Op, pc-1)
		}
	}
}
