package staticlock

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"thinlock/internal/lockdep"
	"thinlock/internal/minijava"
	"thinlock/internal/object"
	"thinlock/internal/threading"
	"thinlock/internal/vm"
)

func analyzeFile(t *testing.T, path string) *Graph {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minijava.Compile(string(src))
	if err != nil {
		t.Fatalf("compile %s: %v", path, err)
	}
	g, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze %s: %v", path, err)
	}
	return g
}

func TestAbbaFlagged(t *testing.T) {
	g := analyzeFile(t, "testdata/abba.mj")
	cycles := g.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("got %d cycles, want 1: %v", len(cycles), cycles)
	}
	rep := cycles[0]
	nodes := map[string]bool{}
	for _, e := range rep.Cycle {
		nodes[e.From] = true
		if e.Thread != "static" {
			t.Errorf("cycle edge thread = %q, want static", e.Thread)
		}
	}
	if !nodes["GuardA"] || !nodes["GuardB"] {
		t.Fatalf("cycle over %v, want GuardA and GuardB", nodes)
	}
	// Both directions must exist and be marked inverted in the export.
	ex := g.GraphJSON()
	dirs := map[[2]string]bool{}
	for _, e := range ex.Edges {
		if e.Inverted {
			dirs[[2]string{e.From, e.To}] = true
		}
	}
	if !dirs[[2]string{"GuardA", "GuardB"}] || !dirs[[2]string{"GuardB", "GuardA"}] {
		t.Fatalf("inverted edges = %v, want both GuardA<->GuardB directions", dirs)
	}
	// Sites carry minijava source lines.
	for _, e := range rep.Cycle {
		if !strings.Contains(e.AcquireSite, "(line ") {
			t.Errorf("acquire site %q does not cite a source line", e.AcquireSite)
		}
	}
}

func TestDiningStaysSilent(t *testing.T) {
	g := analyzeFile(t, "testdata/dining.mj")
	if got := g.Cycles(); len(got) != 0 {
		t.Fatalf("ordered dining flagged: %v", got)
	}
	if n := g.SelfNestings()["Fork"]; n == 0 {
		t.Fatalf("expected a suppressed Fork self nesting, got %v", g.SelfNestings())
	}
	// The self edge is still present in the export, dashed, uninverted.
	ex := g.GraphJSON()
	var self *lockdep.GraphEdge
	for i, e := range ex.Edges {
		if e.From == "Fork" && e.To == "Fork" {
			self = &ex.Edges[i]
		}
	}
	if self == nil {
		t.Fatal("Fork self edge missing from export")
	}
	if self.Inverted || self.MultiThread {
		t.Fatalf("self edge should be uninverted single-observer, got %+v", self)
	}
	if ex.Stats.Inversions != 0 {
		t.Fatalf("stats report %d inversions", ex.Stats.Inversions)
	}
}

// TestAsmAbbaFlagged builds the ABBA shape directly in bytecode (no
// compiler): two static methods locking class-typed params in opposite
// orders, discovered through an interprocedural walk from main.
func TestAsmAbbaFlagged(t *testing.T) {
	p := vm.NewProgram()
	ca := p.AddClass(&vm.Class{Name: "A", NumFields: 1})
	cb := p.AddClass(&vm.Class{Name: "B", NumFields: 1})
	lockBoth := func(name string, first, second int32) *vm.Method {
		return &vm.Method{
			Name: name, Flags: vm.FlagStatic,
			NumArgs: 2, MaxLocals: 2,
			ParamClasses: []int{ca, cb},
			Code: vm.NewAsm().
				Aload(first).MonitorEnter().
				Aload(second).MonitorEnter().
				Aload(second).MonitorExit().
				Aload(first).MonitorExit().
				Return().
				MustBuild(),
		}
	}
	mf := p.AddMethod(lockBoth("f", 0, 1))
	mg := p.AddMethod(lockBoth("g", 1, 0))
	p.AddMethod(&vm.Method{
		Name: "main", Flags: vm.FlagStatic, MaxLocals: 2,
		Code: vm.NewAsm().
			New(int32(ca)).Astore(0).
			New(int32(cb)).Astore(1).
			Aload(0).Aload(1).Invoke(int32(mf)).
			Aload(0).Aload(1).Invoke(int32(mg)).
			Return().
			MustBuild(),
	})
	g, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cycles()) != 1 {
		t.Fatalf("got %d cycles, want 1:\n%s", len(g.Cycles()), dotOf(g))
	}
}

func dotOf(g *Graph) string {
	var b bytes.Buffer
	g.WriteDOT(&b)
	return b.String()
}

func TestExportShapes(t *testing.T) {
	g := analyzeFile(t, "testdata/abba.mj")
	dot := dotOf(g)
	for _, want := range []string{
		"digraph lockorder {",
		"rankdir=LR;",
		`"GuardA" -> "GuardB"`,
		`color="red", penwidth=2`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}

	raw, err := json.Marshal(g.GraphJSON())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"from"`, `"to"`, `"hold_site"`, `"acquire_site"`, `"inverted"`, `"nodes"`, `"inversions"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON export missing key %s", key)
		}
	}
	// The static export must round-trip through the same loader that
	// reads runtime lockdep exports.
	ex, err := LoadRuntimeExport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Edges) != len(g.GraphJSON().Edges) || len(ex.Nodes) != len(g.GraphJSON().Nodes) {
		t.Fatalf("round-trip lost shape: %d/%d edges, %d/%d nodes",
			len(ex.Edges), len(g.GraphJSON().Edges), len(ex.Nodes), len(g.GraphJSON().Nodes))
	}

	var rep bytes.Buffer
	g.WriteReport(&rep)
	if !strings.Contains(rep.String(), "lock-order inversion #1") {
		t.Errorf("report missing inversion:\n%s", rep.String())
	}
}

// TestDiffRuntime drives a real lockdep instance through the abba
// workload's acquisition orders, exports its graph JSON, and diffs it
// against the static analysis of testdata/abba.mj: every runtime edge
// must map onto a static edge.
func TestDiffRuntime(t *testing.T) {
	g := analyzeFile(t, "testdata/abba.mj")

	d := lockdep.New()
	reg := threading.NewRegistry()
	t1, err := reg.Attach("t1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := reg.Attach("t2")
	if err != nil {
		t.Fatal(err)
	}
	heap := object.NewHeap()
	a := heap.New("GuardA")
	b := heap.New("GuardB")
	// t1: A then B; t2: B then A — the runtime view of the same hazard.
	d.Acquired(t1, a)
	d.Acquired(t1, b)
	d.Released(t1, b)
	d.Released(t1, a)
	d.Acquired(t2, b)
	d.Acquired(t2, a)
	d.Released(t2, a)
	d.Released(t2, b)

	raw, err := json.Marshal(d.GraphJSON())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := LoadRuntimeExport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Edges) == 0 {
		t.Fatal("runtime export has no edges; workload did not register")
	}
	diff := g.DiffRuntime(rt)
	if len(diff.RuntimeOnly) != 0 {
		t.Fatalf("runtime observed edges the static graph missed: %+v", diff.RuntimeOnly)
	}
	if len(diff.Matched) != 2 {
		t.Fatalf("matched %d edges, want 2 (A->B and B->A): %+v", len(diff.Matched), diff.Matched)
	}
	var out bytes.Buffer
	diff.WriteDiff(&out)
	if !strings.Contains(out.String(), "2 matched, 0 runtime-only") {
		t.Errorf("diff summary wrong:\n%s", out.String())
	}
}

// TestRuntimeNodeMapping pins the label-collapsing rule.
func TestRuntimeNodeMapping(t *testing.T) {
	cases := map[string]string{
		"Fork#3":       "Fork",
		"GuardA#12":    "GuardA",
		"Fork":         "Fork",
		"Main.f#slot0": "Main.f#slot0", // static slot names survive
		"object#7":     "object",
		"#7":           "#7",
		"Weird#tag":    "Weird#tag",
	}
	for in, want := range cases {
		if got := runtimeNode(in); got != want {
			t.Errorf("runtimeNode(%q) = %q, want %q", in, got, want)
		}
	}
}
