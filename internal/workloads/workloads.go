// Package workloads contains the macro-benchmark programs for the
// paper's Table 1 / Figure 3 / Figure 5 experiments.
//
// The paper's suite is a set of real single-threaded language-processing
// tools (javac, javalex, jax, javadoc, obfuscators, a parser generator, a
// neural-net toolkit...) whose synchronization comes from thread-safe
// library classes. Those exact programs are unavailable here (they are
// 1990s Java artifacts), so each workload below is a synthetic program
// with the same *shape*: the same dominant library classes, the same kind
// of call mix, and sync-op volumes that scale with a size parameter. The
// characterization columns of Table 1 (objects created, synced objects,
// sync operations, syncs per synced object) and the Figure 3 nesting
// profile are regenerated from these workloads; see DESIGN.md §2 for the
// substitution rationale.
//
// Every workload is deterministic and returns a checksum, so tests can
// verify that all three lock implementations compute identical results.
package workloads

import (
	"fmt"

	"thinlock/internal/jcl"
	"thinlock/internal/threading"
)

// Workload is one macro-benchmark program.
type Workload struct {
	// Name is the report label, matching the paper's benchmark it is
	// modeled on.
	Name string
	// Source describes the paper benchmark this models.
	Source string
	// Description summarizes the synchronization profile.
	Description string
	// DefaultSize is the work multiplier used by cmd/macrobench.
	DefaultSize int
	// Concurrent marks workloads that spawn worker threads (and may
	// therefore inflate thin locks); single-threaded invariants such as
	// "no inflations" do not apply to them.
	Concurrent bool
	// Run executes the workload on thread t against ctx's library,
	// returning a deterministic checksum.
	Run func(ctx *jcl.Context, t *threading.Thread, size int) uint64
}

// All returns the workload suite in report order.
func All() []Workload {
	return []Workload{
		{
			Name:        "javalex",
			Source:      "JavaLex lexical analyzer generator (E. Berk)",
			Description: "token Vector hammered with synchronized elementAt calls",
			DefaultSize: 60,
			Run:         runJavalex,
		},
		{
			Name:        "javaparser",
			Source:      "Java grammar parser (Sun)",
			Description: "recursive-descent parsing over a token Vector with a Stack",
			DefaultSize: 40,
			Run:         runJavaparser,
		},
		{
			Name:        "jax",
			Source:      "Jax translator (IBM), 19M BitSet.get calls",
			Description: "iterative dataflow over BitSets; get's synchronized block dominates",
			DefaultSize: 12,
			Run:         runJax,
		},
		{
			Name:        "javac",
			Source:      "Java source-to-bytecode compiler (Sun)",
			Description: "lexing + Hashtable symbol tables + Vector IR + StringBuffer emission",
			DefaultSize: 30,
			Run:         runJavac,
		},
		{
			Name:        "hashjava",
			Source:      "HashJava obfuscator (K.B. Sriram)",
			Description: "identifier renaming through a shared Hashtable",
			DefaultSize: 40,
			Run:         runHashjava,
		},
		{
			Name:        "javadoc",
			Source:      "Java document generator (Sun)",
			Description: "StringBuffer-dominated text generation with Vector indexes",
			DefaultSize: 35,
			Run:         runJavadoc,
		},
		{
			Name:        "netrexx",
			Source:      "NetRexx to Java translator 1.0 (IBM)",
			Description: "line-oriented string rewriting; StringBuffer + keyword Hashtable",
			DefaultSize: 35,
			Run:         runNetrexx,
		},
		{
			Name:        "javacup",
			Source:      "JavaCUP parser generator (S. Hudson)",
			Description: "LALR closure over Vectors with a Stack worklist; deepest nesting",
			DefaultSize: 4,
			Run:         runJavacup,
		},
		{
			Name:        "jnet",
			Source:      "Java Neural Network ToolKit (W. Gander)",
			Description: "numeric inner loops; sparse synchronization (small speedup expected)",
			DefaultSize: 25,
			Run:         runJnet,
		},
		{
			Name:        "crema",
			Source:      "Crema obfuscator (H.P. van Vliet)",
			Description: "many short-lived synchronized containers; large lock working set",
			DefaultSize: 30,
			Run:         runCrema,
		},
		{
			Name:        "sessiond",
			Source:      "(this repository) single-owner session processor",
			Description: "one thread reacquiring a small long-lived working set; lock reservation's best case",
			DefaultSize: 25,
			Run:         runSessiond,
		},
		{
			Name:        "minibank",
			Source:      "(this repository) MiniJava program on the bytecode VM",
			Description: "compiled synchronized methods + blocks through the interpreter",
			DefaultSize: 10,
			Run:         runMinibank,
		},
		{
			Name:        "bankmt",
			Source:      "(this repository) contended bank-transfer kernel",
			Description: "4 worker threads transferring between 8 guarded accounts; inflates locks",
			DefaultSize: 20,
			Concurrent:  true,
			Run:         runBankmt,
		},
		{
			Name:        "dining",
			Source:      "(this repository) dining philosophers, ordered forks",
			Description: "5 philosophers nesting contended fork pairs in a consistent order; lockdep must stay silent",
			DefaultSize: 10,
			Concurrent:  true,
			Run:         runDining,
		},
		{
			Name:        "abba",
			Source:      "(this repository) sequential lock-order inversion",
			Description: "two non-overlapping workers nest two guards in opposite orders; lockdep must flag it, nothing hangs",
			DefaultSize: 10,
			Concurrent:  true,
			Run:         runAbba,
		},
		{
			Name:        "churn",
			Source:      "(this repository) monitor-lifecycle churn kernel",
			Description: "2 workers inflate-and-abandon generations of short-lived objects (10M+ at default size); compact monitors allocate no monitor for them",
			DefaultSize: 500,
			Concurrent:  true,
			Run:         runChurn,
		},
	}
}

// ByName returns the named workload, searching the regular suite and
// then the deliberately-deadlocking Hazards().
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	for _, w := range Hazards() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// mix folds x into a running checksum.
func mix(sum uint64, x uint64) uint64 {
	sum ^= x + 0x9E3779B97F4A7C15 // golden-ratio offset so zeroes still stir
	sum *= 1099511628211          // FNV prime
	return sum
}

// sourceText synthesizes a deterministic Java-ish source file of roughly
// n statements for the text-processing workloads.
func sourceText(n int) string {
	idents := []string{"count", "index", "buffer", "table", "result", "value", "stream", "token"}
	types := []string{"int", "long", "Object", "String", "Vector"}
	s := "class Synthetic {\n"
	for i := 0; i < n; i++ {
		id := idents[i%len(idents)]
		ty := types[i%len(types)]
		s += fmt.Sprintf("  %s %s%d = %s%d + %d;\n", ty, id, i, id, (i+1)%n, i*7%13)
		if i%9 == 0 {
			s += fmt.Sprintf("  if (%s%d < %d) { %s%d = %d; }\n", id, i, i%29, id, i, i%11)
		}
	}
	return s + "}\n"
}

// isIdentChar reports whether c continues an identifier.
func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// isDigit reports whether c is a decimal digit.
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// tokenize scans src into a token Vector, paying one synchronized
// AddElement per token and synchronized StringBuffer appends per
// character, exactly the library call shape of a JDK 1.1 lexer. A reused
// scan buffer keeps the synchronized-object count low while every token
// still materializes plain heap objects (the String and its char array),
// reproducing Table 1's objects >> synced-objects ratio.
func tokenize(ctx *jcl.Context, t *threading.Thread, src string) *jcl.Vector {
	tokens := ctx.NewVector()
	scan := ctx.NewStringBuffer()
	heap := ctx.Heap()
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\n' || c == '\t':
			i++
		case isIdentChar(c):
			scan.SetLength(t, 0)
			for i < len(src) && isIdentChar(src[i]) {
				scan.AppendChar(t, src[i])
				i++
			}
			heap.New("String")
			heap.New("char[]")
			tokens.AddElement(t, scan.String(t))
		default:
			heap.New("String")
			tokens.AddElement(t, string(c))
			i++
		}
	}
	return tokens
}

// hashString folds s like java.lang.String.hashCode.
func hashString(s string) uint64 {
	var h uint64
	for i := 0; i < len(s); i++ {
		h = h*31 + uint64(s[i])
	}
	return h
}
