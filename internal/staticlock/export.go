package staticlock

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"thinlock/internal/lockdep"
)

// GraphJSON exports the static graph in lockdep's GraphExport shape so
// the same tooling (and `lockvet -runtime`) consumes both. Thread is
// always "static"; MultiThread is true on cross-node edges because a
// static edge stands for every thread that could run the path, and
// false on suppressed self edges so DOT dashes them like lockdep's
// single-observer edges.
func (g *Graph) GraphJSON() lockdep.GraphExport {
	ex := lockdep.GraphExport{
		Nodes:      g.sortedNodes(),
		Inversions: g.cycles,
	}
	for _, e := range g.sortedEdges() {
		ex.Edges = append(ex.Edges, lockdep.GraphEdge{
			From:        e.from,
			To:          e.to,
			HoldSite:    e.holdSite,
			AcquireSite: e.acquireSite,
			Thread:      "static",
			MultiThread: e.from != e.to,
			Inverted:    e.inverted,
		})
	}
	ex.Stats.Nodes = len(ex.Nodes)
	ex.Stats.Edges = len(ex.Edges)
	ex.Stats.Inversions = len(g.cycles)
	return ex
}

// WriteDOT renders the static graph through lockdep.WriteDOT, in the
// same Graphviz form as the runtime graph.
func (g *Graph) WriteDOT(w io.Writer) { lockdep.WriteDOT(w, g.GraphJSON()) }

// WriteReport renders a text report in the lockdep report style.
func (g *Graph) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "staticlock: %d lock nodes, %d order edges, %d static cycles, %d same-class nestings suppressed\n",
		len(g.nodes), len(g.edges), len(g.cycles), len(g.selfNesting))
	for _, r := range g.cycles {
		fmt.Fprintf(w, "%s\n", r)
	}
	if len(g.cycles) == 0 {
		fmt.Fprintf(w, "staticlock: no statically possible lock-order cycles\n")
	}
}

// LoadRuntimeExport parses a lockdep GraphExport JSON document, as
// written by /debug/lockdep/graph?format=json or `lockmon`.
func LoadRuntimeExport(r io.Reader) (*lockdep.GraphExport, error) {
	var ex lockdep.GraphExport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ex); err != nil {
		return nil, fmt.Errorf("staticlock: parse runtime export: %w", err)
	}
	return &ex, nil
}

// Diff compares the static graph against a runtime lockdep export.
type Diff struct {
	// Matched lists static edges the runtime also observed.
	Matched []lockdep.GraphEdge
	// RuntimeOnly lists runtime edges outside the static graph —
	// either instance-level order within one class (static self edge)
	// or coverage the static walk missed.
	RuntimeOnly []lockdep.GraphEdge
	// StaticOnly lists statically possible edges no runtime observation
	// hit: latent orders the test workload never exercised.
	StaticOnly []lockdep.GraphEdge
}

// runtimeNode maps a runtime lock label ("Fork#3") to its static node
// ("Fork") by stripping the instance id suffix.
func runtimeNode(label string) string {
	if i := strings.LastIndex(label, "#"); i > 0 {
		digits := label[i+1:]
		if digits != "" && strings.Trim(digits, "0123456789") == "" {
			return label[:i]
		}
	}
	return label
}

// DiffRuntime folds a runtime export onto the static graph. Runtime
// edges between two instances of one class match the static self edge
// when one exists.
func (g *Graph) DiffRuntime(rt *lockdep.GraphExport) Diff {
	var d Diff
	seen := make(map[[2]string]bool)
	for _, re := range rt.Edges {
		k := [2]string{runtimeNode(re.From), runtimeNode(re.To)}
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := g.edges[k]; ok {
			d.Matched = append(d.Matched, re)
		} else if k[0] == k[1] && g.selfNesting[k[0]] != nil {
			d.Matched = append(d.Matched, re)
		} else {
			d.RuntimeOnly = append(d.RuntimeOnly, re)
		}
	}
	for _, e := range g.sortedEdges() {
		if !seen[[2]string{e.from, e.to}] {
			d.StaticOnly = append(d.StaticOnly, lockdep.GraphEdge{
				From: e.from, To: e.to,
				HoldSite: e.holdSite, AcquireSite: e.acquireSite,
				Thread: "static", MultiThread: e.from != e.to,
				Inverted: e.inverted,
			})
		}
	}
	for _, s := range [][]lockdep.GraphEdge{d.Matched, d.RuntimeOnly, d.StaticOnly} {
		sort.Slice(s, func(i, j int) bool {
			if s[i].From != s[j].From {
				return s[i].From < s[j].From
			}
			return s[i].To < s[j].To
		})
	}
	return d
}

// WriteDiff renders the diff as text.
func (d Diff) WriteDiff(w io.Writer) {
	fmt.Fprintf(w, "static-vs-runtime lock order: %d matched, %d runtime-only, %d static-only\n",
		len(d.Matched), len(d.RuntimeOnly), len(d.StaticOnly))
	for _, e := range d.Matched {
		fmt.Fprintf(w, "  = %s -> %s (runtime: acquired at %s by %s)\n", e.From, e.To, e.AcquireSite, e.Thread)
	}
	for _, e := range d.RuntimeOnly {
		fmt.Fprintf(w, "  + runtime-only %s -> %s (acquired at %s by %s)\n", e.From, e.To, e.AcquireSite, e.Thread)
	}
	for _, e := range d.StaticOnly {
		fmt.Fprintf(w, "  - static-only %s -> %s (possible at %s, never observed)\n", e.From, e.To, e.AcquireSite)
	}
}
