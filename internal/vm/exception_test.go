package vm

import (
	"strings"
	"testing"

	"thinlock/internal/core"
)

func TestThrowCaughtInSameMethod(t *testing.T) {
	t.Parallel()
	asm := NewAsm().
		Label("start").
		Iconst(42).Throw().
		Label("end").
		Iconst(0).IReturn(). // skipped
		Label("handler").
		Iconst(1).Iadd().IReturn(). // exception value + 1
		Protect("start", "end", "handler")
	code, handlers, err := asm.BuildWithHandlers()
	if err != nil {
		t.Fatal(err)
	}
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{
			Name: "m", Flags: FlagStatic | FlagReturnsValue,
			Code: code, Handlers: handlers,
		})
	})
	res, err := v.Run(th, "m")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 43 {
		t.Fatalf("result = %d, want 43 (caught 42 + 1)", res.I)
	}
}

func TestThrowPropagatesToCaller(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		// thrower (index 0): throws 7 unconditionally.
		p.AddMethod(&Method{
			Name: "thrower", Flags: FlagStatic | FlagReturnsValue,
			Code: NewAsm().Iconst(7).Throw().MustBuild(),
		})
		// catcher: invokes thrower under a handler.
		asm := NewAsm().
			Label("start").
			Invoke(0).IReturn().
			Label("end").
			Label("handler").
			Iconst(100).Iadd().IReturn().
			Protect("start", "end", "handler")
		code, handlers, err := asm.BuildWithHandlers()
		if err != nil {
			t.Fatal(err)
		}
		p.AddMethod(&Method{
			Name: "catcher", Flags: FlagStatic | FlagReturnsValue,
			Code: code, Handlers: handlers,
		})
		// voidThrower (index 2): a void method that throws 7.
		p.AddMethod(&Method{
			Name: "voidThrower", Flags: FlagStatic,
			Code: NewAsm().Iconst(7).Throw().MustBuild(),
		})
		// swallower: its only operand-stack use is the handler's pop of
		// the thrown value, which its frame must still have a slot for.
		code, handlers, err = NewAsm().
			Label("start").
			Invoke(2).
			Label("end").
			Return().
			Label("handler").
			Pop().Return().
			Protect("start", "end", "handler").
			BuildWithHandlers()
		if err != nil {
			t.Fatal(err)
		}
		p.AddMethod(&Method{
			Name: "swallower", Flags: FlagStatic,
			Code: code, Handlers: handlers,
		})
	})
	res, err := v.Run(th, "catcher")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 107 {
		t.Fatalf("result = %d, want 107", res.I)
	}
	if _, err := v.Run(th, "swallower"); err != nil {
		t.Fatal(err)
	}
}

func TestUncaughtThrowBecomesError(t *testing.T) {
	t.Parallel()
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{
			Name: "boom", Flags: FlagStatic | FlagReturnsValue,
			Code: NewAsm().Iconst(13).Throw().MustBuild(),
		})
	})
	_, err := v.Run(th, "boom")
	if err == nil || !strings.Contains(err.Error(), "uncaught exception 13") {
		t.Fatalf("err = %v, want uncaught exception 13", err)
	}
}

// TestThrowReleasesSynchronizedMethodMonitor is the JVM guarantee the
// exception machinery exists for: abrupt completion of a synchronized
// method must release the receiver's monitor.
func TestThrowReleasesSynchronizedMethodMonitor(t *testing.T) {
	t.Parallel()
	l := core.NewDefault()
	v, th := newVMWithLocker(t, l, func(p *Program) {
		c := &Class{Name: "C", NumFields: 0}
		p.AddClass(c)
		p.AddMethod(&Method{
			Name: "boom", Class: c, Flags: FlagSync | FlagReturnsValue,
			NumArgs: 1, MaxLocals: 1,
			Code: NewAsm().Iconst(9).Throw().MustBuild(),
		})
	})
	o, err := v.NewInstance("C")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(th, "C.boom", RefValue(o)); err == nil {
		t.Fatal("expected uncaught exception")
	}
	if !core.IsUnlocked(o.Header()) {
		t.Fatalf("receiver still locked after abrupt completion: %#x", o.Header())
	}
	// The object must be fully usable afterwards.
	l.Lock(th, o.Object)
	if err := l.Unlock(th, o.Object); err != nil {
		t.Fatal(err)
	}
}

// TestDeepThrowReleasesEverySynchronizedFrame throws at the bottom of
// 501 synchronized frames, each holding a different object's monitor,
// which sit on 502 plain frames; the frame stack grows several times on
// the way down. A handler above the synchronized frames catches the
// value, and every frame it unwinds must release its monitor.
func TestDeepThrowReleasesEverySynchronizedFrame(t *testing.T) {
	t.Parallel()
	const depth = 500
	v, th := newVM(t, func(p *Program) {
		node := &Class{Name: "Node", NumFields: 1} // field 0: next
		p.AddClass(node)
		// Node.walk(this, n), index 0: synchronized; throws 7 at n == 0,
		// else returns next.walk(n-1).
		p.AddMethod(&Method{
			Name: "walk", Class: node, Flags: FlagSync | FlagReturnsValue,
			NumArgs: 2, MaxLocals: 2,
			Code: NewAsm().
				Iload(1).IfNE("deeper").
				Iconst(7).Throw().
				Label("deeper").
				Aload(0).GetField(0).
				Iload(1).Iconst(-1).Iadd().
				Invoke(0).IReturn().
				MustBuild(),
		})
		// catchAt(head, n), index 1: returns head.walk(n), or the thrown
		// value + 100.
		code, handlers, err := NewAsm().
			Label("start").
			Aload(0).Iload(1).Invoke(0).IReturn().
			Label("end").
			Label("handler").
			Iconst(100).Iadd().IReturn().
			Protect("start", "end", "handler").
			BuildWithHandlers()
		if err != nil {
			t.Fatal(err)
		}
		p.AddMethod(&Method{
			Name: "catchAt", Flags: FlagStatic | FlagReturnsValue,
			NumArgs: 2, MaxLocals: 2, Code: code, Handlers: handlers,
		})
		// descend(head, d, n), index 2: d plain frames, then catchAt.
		p.AddMethod(&Method{
			Name: "descend", Flags: FlagStatic | FlagReturnsValue,
			NumArgs: 3, MaxLocals: 3,
			Code: NewAsm().
				Iload(1).IfNE("deeper").
				Aload(0).Iload(2).Invoke(1).IReturn().
				Label("deeper").
				Aload(0).Iload(1).Iconst(-1).Iadd().Iload(2).Invoke(2).IReturn().
				MustBuild(),
		})
	})
	nodes := make([]*Obj, depth+1)
	for i := len(nodes) - 1; i >= 0; i-- {
		o, err := v.NewInstance("Node")
		if err != nil {
			t.Fatal(err)
		}
		if i+1 < len(nodes) {
			o.Fields[0] = RefValue(nodes[i+1])
		}
		nodes[i] = o
	}
	res, err := v.Run(th, "descend", RefValue(nodes[0]), IntValue(depth), IntValue(depth))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 107 {
		t.Fatalf("result = %d, want 107 (caught 7 + 100)", res.I)
	}
	for i, o := range nodes {
		if !core.IsUnlocked(o.Header()) {
			t.Fatalf("node %d still locked after the throw unwound its frame: %#x", i, o.Header())
		}
	}
	requireFrameStackCleared(t, v)
}

// TestHandlerReleasesMonitorEnterExitPair mimics what a Java compiler
// emits for synchronized blocks: a catch-all handler that unlocks and
// rethrows. The lock must be free after the exception escapes.
func TestHandlerReleasesMonitorEnterExitPair(t *testing.T) {
	t.Parallel()
	l := core.NewDefault()
	v, th := newVMWithLocker(t, l, func(p *Program) {
		p.AddClass(&Class{Name: "L", NumFields: 0})
		asm := NewAsm().
			New(0).Astore(0).
			Aload(0).MonitorEnter().
			Label("start").
			Iconst(5).Throw().
			Label("end").
			Aload(0).MonitorExit().
			Iconst(0).IReturn().
			Label("handler").
			// stack: [exception]; unlock, then rethrow.
			Aload(0).MonitorExit().
			Throw().
			Protect("start", "end", "handler")
		code, handlers, err := asm.BuildWithHandlers()
		if err != nil {
			t.Fatal(err)
		}
		p.AddMethod(&Method{
			Name: "m", Flags: FlagStatic | FlagReturnsValue,
			MaxLocals: 1, Code: code, Handlers: handlers,
		})
	})
	_, err := v.Run(th, "m")
	if err == nil || !strings.Contains(err.Error(), "uncaught exception 5") {
		t.Fatalf("err = %v", err)
	}
	if s := l.Stats(); s.Inflations() != 0 {
		t.Error("inflated during single-threaded run")
	}
}

func TestFirstCoveringHandlerWins(t *testing.T) {
	t.Parallel()
	asm := NewAsm().
		Label("start").
		Iconst(1).Throw().
		Label("end").
		Iconst(0).IReturn().
		Label("h1").
		Iconst(10).Iadd().IReturn().
		Label("h2").
		Iconst(20).Iadd().IReturn().
		Protect("start", "end", "h1").
		Protect("start", "end", "h2")
	code, handlers, err := asm.BuildWithHandlers()
	if err != nil {
		t.Fatal(err)
	}
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{Name: "m", Flags: FlagStatic | FlagReturnsValue,
			Code: code, Handlers: handlers})
	})
	res, err := v.Run(th, "m")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 11 {
		t.Fatalf("result = %d, want 11 (first handler)", res.I)
	}
}

func TestHandlerClearsOperandStack(t *testing.T) {
	t.Parallel()
	// Throw with junk on the stack: the handler sees only the exception.
	asm := NewAsm().
		Iconst(111).Iconst(222). // junk
		Label("start").
		Iconst(3).Throw().
		Label("end").
		Pop().Pop().Iconst(0).IReturn().
		Label("handler").
		IReturn(). // returns exactly the thrown value
		Protect("start", "end", "handler")
	code, handlers, err := asm.BuildWithHandlers()
	if err != nil {
		t.Fatal(err)
	}
	v, th := newVM(t, func(p *Program) {
		p.AddMethod(&Method{Name: "m", Flags: FlagStatic | FlagReturnsValue,
			Code: code, Handlers: handlers})
	})
	res, err := v.Run(th, "m")
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 3 {
		t.Fatalf("result = %d, want 3", res.I)
	}
}

func TestVerifyRejectsBadHandlers(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		h    Handler
		want string
	}{
		{"inverted range", Handler{StartPC: 2, EndPC: 1, HandlerPC: 0}, "bad range"},
		{"range past end", Handler{StartPC: 0, EndPC: 99, HandlerPC: 0}, "bad range"},
		{"target out of range", Handler{StartPC: 0, EndPC: 1, HandlerPC: 99}, "outside"},
		{"negative start", Handler{StartPC: -1, EndPC: 1, HandlerPC: 0}, "bad range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Method{
				Name: "m", Flags: FlagStatic,
				Code:     []Instr{{Op: OpReturn}, {Op: OpReturn}},
				Handlers: []Handler{tc.h},
			}
			err := verifyOne(m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestVerifySeedsHandlerDepth(t *testing.T) {
	t.Parallel()
	// The handler consumes the thrown value; an unbalanced handler must
	// be rejected.
	asm := NewAsm().
		Label("start").
		Iconst(1).Throw().
		Label("end").
		Iconst(0).IReturn().
		Label("handler").
		Pop().Pop(). // underflow: only the exception is on the stack
		Iconst(0).IReturn().
		Protect("start", "end", "handler")
	code, handlers, err := asm.BuildWithHandlers()
	if err != nil {
		t.Fatal(err)
	}
	m := &Method{Name: "m", Flags: FlagStatic | FlagReturnsValue,
		Code: code, Handlers: handlers}
	if err := verifyOne(m); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("err = %v, want underflow", err)
	}
}

func TestBuildRejectsHandlersWithoutBuildWithHandlers(t *testing.T) {
	t.Parallel()
	asm := NewAsm().Label("a").Return().Label("b").Protect("a", "b", "a")
	if _, err := asm.Build(); err == nil {
		t.Fatal("Build accepted a listing with handlers")
	}
	bad := NewAsm().Label("a").Return().Protect("a", "missing", "a")
	if _, _, err := bad.BuildWithHandlers(); err == nil {
		t.Fatal("unresolved handler label accepted")
	}
}
