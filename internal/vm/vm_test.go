package vm

import (
	"strings"
	"sync"
	"testing"

	"thinlock/internal/core"
	"thinlock/internal/lockapi"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

func newVM(t *testing.T, build func(p *Program)) (*VM, *threading.Thread) {
	t.Helper()
	return newVMWithLocker(t, core.NewDefault(), build)
}

func newVMWithLocker(t *testing.T, l lockapi.Locker, build func(p *Program)) (*VM, *threading.Thread) {
	t.Helper()
	p := NewProgram()
	build(p)
	v, err := New(p, l, object.NewHeap())
	if err != nil {
		t.Fatal(err)
	}
	reg := threading.NewRegistry()
	th, err := reg.Attach("main")
	if err != nil {
		t.Fatal(err)
	}
	return v, th
}

func TestArithmetic(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{
			Name: "calc", Flags: FlagStatic | FlagReturnsValue,
			MaxLocals: 0,
			Code: NewAsm().
				Iconst(6).Iconst(7).Imul(). // 42
				Iconst(2).Iadd().           // 44
				Iconst(4).Isub().           // 40
				IReturn().
				MustBuild(),
		})
	})
	res, err := v.Run(th, "calc")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 40 {
		t.Fatalf("calc = %d, want 40", res.I)
	}
}

func TestLoopCounting(t *testing.T) {
	t.Parallel()
	// locals: 0 = limit (arg), 1 = i, 2 = acc
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{
			Name: "sum", Flags: FlagStatic | FlagReturnsValue,
			NumArgs: 1, MaxLocals: 3,
			Code: NewAsm().
				Iconst(0).Istore(1).
				Iconst(0).Istore(2).
				Label("loop").
				Iload(1).Iload(0).IfICmpGE("done").
				Iload(2).Iload(1).Iadd().Istore(2).
				Iinc(1, 1).
				Goto("loop").
				Label("done").
				Iload(2).IReturn().
				MustBuild(),
		})
	})
	res, err := v.Run(th, "sum", IntValue(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 45 {
		t.Fatalf("sum(10) = %d, want 45", res.I)
	}
}

func TestFieldsAndNew(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		p.AddClass(&Class{Name: "Point", NumFields: 2})
		p.AddMethod(&Method{
			Name: "mk", Flags: FlagStatic | FlagReturnsValue,
			MaxLocals: 1,
			Code: NewAsm().
				New(0).Astore(0).
				Aload(0).Iconst(3).PutField(0).
				Aload(0).Iconst(4).PutField(1).
				Aload(0).GetField(0).
				Aload(0).GetField(1).
				Imul().IReturn().
				MustBuild(),
		})
	})
	res, err := v.Run(th, "mk")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 12 {
		t.Fatalf("mk = %d, want 12", res.I)
	}
}

func TestArrays(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		p.AddClass(&Class{Name: "Cell", NumFields: 1})
		p.AddMethod(&Method{
			Name: "arr", Flags: FlagStatic | FlagReturnsValue,
			MaxLocals: 2,
			Code: NewAsm().
				NewArray(3).Astore(0).
				New(0).Astore(1).
				Aload(1).Iconst(9).PutField(0).
				// arr[2] = cell
				Aload(0).Iconst(2).Aload(1).AStoreIdx().
				// return arr[2].field0
				Aload(0).Iconst(2).ALoadIdx().GetField(0).
				IReturn().
				MustBuild(),
		})
	})
	res, err := v.Run(th, "arr")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 9 {
		t.Fatalf("arr = %d, want 9", res.I)
	}
}

func TestInvokeAndRecursion(t *testing.T) {
	t.Parallel()
	p := NewProgram()
	// fact(n) = n <= 0 ? 1 : n * fact(n-1); method index known = 0.
	p.AddMethod(&Method{
		Name: "fact", Flags: FlagStatic | FlagReturnsValue,
		NumArgs: 1, MaxLocals: 1,
		Code: NewAsm().
			Iload(0).Iconst(1).IfICmpLT("base").
			Iload(0).
			Iload(0).Iconst(-1).Iadd().
			Invoke(0).
			Imul().IReturn().
			Label("base").
			Iconst(1).IReturn().
			MustBuild(),
	})
	// sum(n) = n <= 0 ? 0 : n + sum(n-1), which stays exact at depths
	// where fact has wrapped to 0; method index 1.
	p.AddMethod(&Method{
		Name: "sum", Flags: FlagStatic | FlagReturnsValue,
		NumArgs: 1, MaxLocals: 1,
		Code: NewAsm().
			Iload(0).Iconst(1).IfICmpLT("base").
			Iload(0).
			Iload(0).Iconst(-1).Iadd().
			Invoke(1).
			Iadd().IReturn().
			Label("base").
			Iconst(0).IReturn().
			MustBuild(),
	})
	// stale(n) calls dirty(n), which leaves n in its second local, and
	// then fresh(n), whose frame reuses those slots and returns its
	// second local before storing to it: 0, as in a zeroed frame.
	p.AddMethod(&Method{
		Name: "dirty", Flags: FlagStatic | FlagReturnsValue,
		NumArgs: 1, MaxLocals: 2,
		Code: NewAsm().Iload(0).Istore(1).Iload(1).IReturn().MustBuild(),
	})
	p.AddMethod(&Method{
		Name: "fresh", Flags: FlagStatic | FlagReturnsValue,
		NumArgs: 1, MaxLocals: 2,
		Code: NewAsm().Iload(1).IReturn().MustBuild(),
	})
	p.AddMethod(&Method{
		Name: "stale", Flags: FlagStatic | FlagReturnsValue,
		NumArgs: 1, MaxLocals: 1,
		Code: NewAsm().
			Iload(0).Invoke(2).Pop().
			Iload(0).Invoke(3).IReturn().
			MustBuild(),
	})
	v, err := New(p, core.NewDefault(), object.NewHeap(), WithStepLimit(50_000))
	if err != nil {
		t.Fatal(err)
	}
	th, err := threading.NewRegistry().Attach("main")
	if err != nil {
		t.Fatal(err)
	}
	// The cases run in order on one VM, so each one starts on the frame
	// stack the one before it left behind.
	cases := []struct {
		method string
		n      int64
		want   int64
		err    string
	}{
		{method: "fact", n: 10, want: 3628800},
		// Deep enough that the frame stack grows several times mid-call.
		{method: "sum", n: 1000, want: 500500},
		// Traps on the step limit thousands of frames down.
		{method: "sum", n: 100_000, err: "step limit 50000 exceeded"},
		{method: "fact", n: 10, want: 3628800},
		{method: "sum", n: 1000, want: 500500},
		{method: "stale", n: 99, want: 0},
	}
	for _, c := range cases {
		res, err := v.Run(th, c.method, IntValue(c.n))
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("%s(%d): err = %v, want %q", c.method, c.n, err, c.err)
			}
		} else if err != nil {
			t.Fatalf("%s(%d): %v", c.method, c.n, err)
		} else if res.I != c.want {
			t.Fatalf("%s(%d) = %d, want %d", c.method, c.n, res.I, c.want)
		}
		requireFrameStackCleared(t, v)
	}
	if n := len(v.frames.Load().buf); n < 2*1000 {
		t.Fatalf("frame stack holds %d slots after sum(1000), want at least 2000", n)
	}
}

// requireFrameStackCleared checks that the frame stack parked in v holds
// no value, so the VM keeps nothing a finished Run used reachable.
func requireFrameStackCleared(t *testing.T, v *VM) {
	t.Helper()
	fs := v.frames.Load()
	if fs == nil {
		t.Fatal("no frame stack parked in the VM after Run")
	}
	for i, val := range fs.buf {
		if val != (Value{}) {
			t.Fatalf("frame stack slot %d still holds %+v after Run", i, val)
		}
	}
}

// TestInvokeAllocatesNothing gates the frame stack: interpreted calls
// take their frames from the VM's buffer and pass arguments in place,
// so a Run that invokes a method 64 times allocates no more than one
// that invokes it once. Not parallel: AllocsPerRun counts every
// allocation in the process.
func TestInvokeAllocatesNothing(t *testing.T) {
	v, th := newVM(t, func(p *Program) {
		// id(x) = x; method index 0.
		p.AddMethod(&Method{
			Name: "id", Flags: FlagStatic | FlagReturnsValue,
			NumArgs: 1, MaxLocals: 1,
			Code: NewAsm().Iload(0).IReturn().MustBuild(),
		})
		// calls(n) sums id(i) over i < n; locals: 0 = n, 1 = i, 2 = acc.
		p.AddMethod(&Method{
			Name: "calls", Flags: FlagStatic | FlagReturnsValue,
			NumArgs: 1, MaxLocals: 3,
			Code: NewAsm().
				Iconst(0).Istore(1).
				Iconst(0).Istore(2).
				Label("loop").
				Iload(1).Iload(0).IfICmpGE("done").
				Iload(2).Iload(1).Invoke(0).Iadd().Istore(2).
				Iinc(1, 1).
				Goto("loop").
				Label("done").
				Iload(2).IReturn().
				MustBuild(),
		})
	})
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(100, func() {
			res, err := v.Run(th, "calls", IntValue(n))
			if err != nil || res.I != n*(n-1)/2 {
				t.Fatalf("calls(%d) = %d, %v; want %d", n, res.I, err, n*(n-1)/2)
			}
		})
	}
	if one, many := allocs(1), allocs(64); many > one {
		t.Fatalf("64 invokes allocate %.1f times per Run, 1 invoke %.1f: invokes allocate", many, one)
	}
}

func TestMonitorEnterExitBytecodes(t *testing.T) {
	t.Parallel()
	l := core.NewDefault()
	v, th := newVMWithLocker(t, l, func(p *Program) {
		p.AddClass(&Class{Name: "Lockee", NumFields: 1})
		// sync(o) { o.f++ } iterated arg-many times; locals: 0=obj 1=limit 2=i
		p.AddMethod(&Method{
			Name: "spin", Flags: FlagStatic,
			NumArgs: 2, MaxLocals: 3,
			Code: NewAsm().
				Iconst(0).Istore(2).
				Label("loop").
				Iload(2).Iload(1).IfICmpGE("done").
				Aload(0).MonitorEnter().
				Aload(0).Aload(0).GetField(0).Iconst(1).Iadd().PutField(0).
				Aload(0).MonitorExit().
				Iinc(2, 1).
				Goto("loop").
				Label("done").
				Return().
				MustBuild(),
		})
	})
	o, err := v.NewInstance("Lockee")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(th, "spin", RefValue(o), IntValue(1000)); err != nil {
		t.Fatal(err)
	}
	if o.Fields[0].I != 1000 {
		t.Fatalf("field = %d, want 1000", o.Fields[0].I)
	}
	if !core.IsUnlocked(o.Header()) {
		t.Fatal("object left locked after balanced monitorenter/exit")
	}
}

func TestSynchronizedInstanceMethod(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		c := &Class{Name: "Counter", NumFields: 1}
		p.AddClass(c)
		p.AddMethod(&Method{
			Name: "inc", Class: c, Flags: FlagSync,
			NumArgs: 1, MaxLocals: 1,
			Code: NewAsm().
				Aload(0).Aload(0).GetField(0).Iconst(1).Iadd().PutField(0).
				Return().
				MustBuild(),
		})
	})
	o, _ := v.NewInstance("Counter")
	for i := 0; i < 5; i++ {
		if _, err := v.Run(th, "Counter.inc", RefValue(o)); err != nil {
			t.Fatal(err)
		}
	}
	if o.Fields[0].I != 5 {
		t.Fatalf("counter = %d, want 5", o.Fields[0].I)
	}
	if !core.IsUnlocked(o.Header()) {
		t.Fatal("receiver left locked by synchronized method")
	}
}

func TestSynchronizedStaticMethodLocksClassObject(t *testing.T) {
	t.Parallel()
	var cls *Class
	v, th := newVM(t, func(p *Program) {
		cls = &Class{Name: "G", NumFields: 0}
		p.AddClass(cls)
		p.AddMethod(&Method{
			Name: "tick", Class: cls, Flags: FlagSync | FlagStatic,
			MaxLocals: 0,
			Code:      NewAsm().Return().MustBuild(),
		})
	})
	if _, err := v.Run(th, "G.tick"); err != nil {
		t.Fatal(err)
	}
	if cls.classObj == nil {
		t.Fatal("class object not allocated")
	}
	if !core.IsUnlocked(cls.classObj.Header()) {
		t.Fatal("class object left locked")
	}
}

func TestConcurrentSynchronizedMethods(t *testing.T) {
	t.Parallel()
	v, _ := newVM(t, func(p *Program) {
		c := &Class{Name: "Counter", NumFields: 1}
		p.AddClass(c)
		p.AddMethod(&Method{
			Name: "inc", Class: c, Flags: FlagSync,
			NumArgs: 1, MaxLocals: 1,
			Code: NewAsm().
				Aload(0).Aload(0).GetField(0).Iconst(1).Iadd().PutField(0).
				Return().
				MustBuild(),
		})
	})
	o, _ := v.NewInstance("Counter")
	reg := threading.NewRegistry()
	const goroutines, iters = 6, 300
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
				if _, err := v.Run(th, "Counter.inc", RefValue(o)); err != nil {
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
}

func TestRunErrors(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{
			Name: "nilderef", Flags: FlagStatic, MaxLocals: 1,
			Code: NewAsm().
				Aload(0).MonitorEnter().
				Aload(0).MonitorExit().
				Return().
				MustBuild(),
		})
	})
	if _, err := v.Run(th, "missing"); err == nil {
		t.Error("unknown method did not error")
	}
	if _, err := v.Run(th, "nilderef"); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("nil monitorenter err = %v", err)
	}
	if _, err := v.Run(th, "nilderef", IntValue(1), IntValue(2)); err == nil {
		t.Error("wrong arity did not error")
	}
}

func TestUnbalancedMonitorExitErrors(t *testing.T) {
	t.Parallel()
	// The structured-locking verifier rejects this statically; build the
	// VM with that layer off to reach the runtime trap it backstops.
	p := NewProgram()
	p.AddClass(&Class{Name: "X", NumFields: 0})
	p.AddMethod(&Method{
		Name: "bad", Flags: FlagStatic, MaxLocals: 1,
		Code: NewAsm().
			New(0).Astore(0).
			Aload(0).MonitorExit().
			Return().
			MustBuild(),
	})
	v, err := New(p, core.NewDefault(), object.NewHeap(), WithoutStructuredLocking())
	if err != nil {
		t.Fatal(err)
	}
	reg := threading.NewRegistry()
	th, err := reg.Attach("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(th, "bad"); err == nil || !strings.Contains(err.Error(), "illegal monitor state") {
		t.Errorf("err = %v, want illegal monitor state failure", err)
	}
}

func TestVerifierRejectsUnbalancedMonitorExit(t *testing.T) {
	t.Parallel()
	p := NewProgram()
	p.AddClass(&Class{Name: "X", NumFields: 0})
	p.AddMethod(&Method{
		Name: "bad", Flags: FlagStatic, MaxLocals: 1,
		Code: NewAsm().
			New(0).Astore(0).
			Aload(0).MonitorExit().
			Return().
			MustBuild(),
	})
	_, err := New(p, core.NewDefault(), object.NewHeap())
	if err == nil || !strings.Contains(err.Error(), "no monitor held") {
		t.Errorf("err = %v, want static no-monitor-held rejection", err)
	}
}

func TestNewInstanceUnknownClass(t *testing.T) {
	t.Parallel()
	v, _ := newVM(t, func(p *Program) {
		p.AddMethod(&Method{Name: "noop", Flags: FlagStatic,
			Code: NewAsm().Return().MustBuild()})
	})
	if _, err := v.NewInstance("Ghost"); err == nil {
		t.Error("unknown class did not error")
	}
	if v.NewArray(4) == nil {
		t.Error("NewArray returned nil")
	}
}

func TestProgramLookups(t *testing.T) {
	t.Parallel()
	p := NewProgram()
	c := &Class{Name: "C"}
	ci := p.AddClass(c)
	m := &Method{Name: "m", Class: c, Flags: FlagStatic,
		Code: NewAsm().Return().MustBuild()}
	mi := p.AddMethod(m)
	if i, ok := p.ClassIndex("C"); !ok || i != ci {
		t.Error("ClassIndex")
	}
	if i, ok := p.MethodIndex("C.m"); !ok || i != mi {
		t.Error("MethodIndex")
	}
	if p.Method("C.m") != m || p.Method("nope") != nil {
		t.Error("Method lookup")
	}
	if m.QualifiedName() != "C.m" {
		t.Error("QualifiedName")
	}
	free := &Method{Name: "f", Flags: FlagStatic, Code: NewAsm().Return().MustBuild()}
	p.AddMethod(free)
	if free.QualifiedName() != "f" {
		t.Error("bare QualifiedName")
	}
}

func TestRemainingOpcodesExecute(t *testing.T) {
	t.Parallel()
	// Cover nop, dup, ifne, areturn and the Pos accessor in one method:
	// dup the constant 7, keep one copy if nonzero, return an object.
	v, th := newVM(t, func(p *Program) {
		p.AddClass(&Class{Name: "Box", NumFields: 1})
		asm := NewAsm()
		if asm.Pos() != 0 {
			t.Fatal("fresh Pos != 0")
		}
		asm.Nop().
			Iconst(7).Dup().IfNE("keep").
			Pop().Iconst(0).Istore(0).Goto("make").
			Label("keep").
			Istore(0).
			Label("make").
			New(0).Dup().Iload(0).PutField(0).
			AReturn()
		if asm.Pos() == 0 {
			t.Fatal("Pos did not advance")
		}
		p.AddMethod(&Method{
			Name: "mk", Flags: FlagStatic | FlagReturnsValue,
			MaxLocals: 1, Code: asm.MustBuild(),
		})
	})
	res, err := v.Run(th, "mk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ref == nil || res.Ref.Fields[0].I != 7 {
		t.Fatalf("result = %+v, want Box{7}", res)
	}
}

func TestDisassemble(t *testing.T) {
	t.Parallel()
	code := NewAsm().Iconst(5).Iinc(0, 2).Return().MustBuild()
	dis := Disassemble(code)
	for _, want := range []string{"iconst 5", "iinc 0 2", "return"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly %q missing %q", dis, want)
		}
	}
}

func TestLockerAccessor(t *testing.T) {
	t.Parallel()
	l := core.NewDefault()
	v, _ := newVMWithLocker(t, l, func(p *Program) {
		p.AddMethod(&Method{Name: "n", Flags: FlagStatic,
			Code: NewAsm().Return().MustBuild()})
	})
	if v.Locker() != l {
		t.Error("Locker accessor mismatch")
	}
	if v.Program() == nil {
		t.Error("Program accessor nil")
	}
}
