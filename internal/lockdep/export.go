package lockdep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Export formats for the debug endpoints (lockprof's /debug server
// mounts these under /debug/lockdep/*) and for cmd/lockmon reports.

// GraphEdge is one lock-order edge in the JSON export.
type GraphEdge struct {
	From        string `json:"from"`
	To          string `json:"to"`
	HoldSite    string `json:"hold_site"`
	AcquireSite string `json:"acquire_site"`
	Thread      string `json:"thread"`
	MultiThread bool   `json:"multi_thread"`
	Inverted    bool   `json:"inverted"` // part of a reported inversion cycle
}

// GraphExport is the JSON shape of /debug/lockdep/graph?format=json.
type GraphExport struct {
	Nodes      []string           `json:"nodes"`
	Edges      []GraphEdge        `json:"edges"`
	Inversions []*InversionReport `json:"inversions"`
	Stats      Stats              `json:"stats"`
}

// invertedEdges collects the (from, to) label pairs that appear in any
// reported inversion cycle, so exports can highlight them.
func (d *Lockdep) invertedEdges() map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, r := range d.Inversions() {
		for _, e := range r.Cycle {
			out[[2]string{e.From, e.To}] = true
		}
	}
	return out
}

// GraphJSON returns the lock-order graph as a JSON export value.
func (d *Lockdep) GraphJSON() GraphExport {
	inv := d.invertedEdges()
	ex := GraphExport{
		Inversions: d.Inversions(),
		Stats:      d.Stats(),
	}
	for _, n := range d.graph.nodes() {
		ex.Nodes = append(ex.Nodes, n.label())
		for i := 0; i < maxOut; i++ {
			e := n.out[i].Load()
			if e == nil {
				break
			}
			ge := GraphEdge{
				From:        e.from.label(),
				To:          e.to.label(),
				HoldSite:    d.SiteLabel(e.holdSite),
				AcquireSite: d.SiteLabel(e.acqSite),
				Thread:      e.threadNm,
				MultiThread: e.multi.Load(),
			}
			ge.Inverted = inv[[2]string{ge.From, ge.To}]
			ex.Edges = append(ex.Edges, ge)
		}
	}
	return ex
}

// dotQuote escapes a string for use inside a DOT double-quoted id.
func dotQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// WriteDOT renders the lock-order graph in Graphviz DOT form (see the
// function WriteDOT).
func (d *Lockdep) WriteDOT(w io.Writer) { WriteDOT(w, d.GraphJSON()) }

// WriteDOT renders a lock-order graph export in Graphviz DOT form, for
// lockdep's runtime graph and staticlock's static one alike: one box per
// node, then one edge per order, labelled with its acquire site. Edges
// that take part in a reported inversion cycle are drawn red and bold;
// single-observer edges (and the static graph's self edges) are dashed.
func WriteDOT(w io.Writer, ex GraphExport) {
	fmt.Fprintln(w, "digraph lockorder {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for _, n := range ex.Nodes {
		fmt.Fprintf(w, "  %s;\n", dotQuote(n))
	}
	for _, e := range ex.Edges {
		attrs := []string{fmt.Sprintf("label=%s", dotQuote(e.AcquireSite))}
		if e.Inverted {
			attrs = append(attrs, `color="red"`, `penwidth=2`)
		} else if !e.MultiThread {
			attrs = append(attrs, `style="dashed"`)
		}
		fmt.Fprintf(w, "  %s -> %s [%s];\n",
			dotQuote(e.From), dotQuote(e.To), strings.Join(attrs, ", "))
	}
	fmt.Fprintln(w, "}")
}

// WaitForExport is the JSON shape of /debug/lockdep/waitfor.
type WaitForExport struct {
	Waiters []WaitNode  `json:"waiters"`
	Cycles  []WaitCycle `json:"cycles"`
}

// WaitForJSON snapshots the wait-for graph and runs the cycle detector.
func (d *Lockdep) WaitForJSON() WaitForExport {
	return WaitForExport{
		Waiters: d.WaitingThreads(),
		Cycles:  d.DetectWaitCycles(),
	}
}

// WriteReport renders the full text report: counters, every inversion,
// any live deadlock, and the current waiters. This is what
// /debug/lockdep/report and `lockmon -lockdep` print.
func (d *Lockdep) WriteReport(w io.Writer) {
	st := d.Stats()
	fmt.Fprintf(w, "lockdep: %d lock objects, %d order edges, %d inversions, %d single-thread cycles suppressed\n",
		st.Nodes, st.Edges, st.Inversions, st.SingleThreadCycles)
	if st.SiteDrops+st.NodeDrops+st.EdgeDrops+st.ReportDrops+st.HeldOverflows > 0 {
		fmt.Fprintf(w, "lockdep: drops: sites=%d nodes=%d edges=%d reports=%d held-overflows=%d\n",
			st.SiteDrops, st.NodeDrops, st.EdgeDrops, st.ReportDrops, st.HeldOverflows)
	}
	for _, r := range d.Inversions() {
		fmt.Fprintf(w, "%s\n", r)
	}
	cycles := d.DetectWaitCycles()
	for _, c := range cycles {
		fmt.Fprintf(w, "%s\n", c)
	}
	waiters := d.WaitingThreads()
	if len(waiters) > 0 {
		fmt.Fprintf(w, "blocked threads (%d):\n", len(waiters))
		for _, n := range waiters {
			fmt.Fprintf(w, "  %s blocked on %s (%s at %s, %s)\n",
				n.Thread, n.BlockedOn, n.Kind, n.BlockedSite, time_ns(n.WaitNs))
		}
	}
	if st.Inversions == 0 && len(cycles) == 0 {
		fmt.Fprintf(w, "lockdep: no lock-order inversions or wait-for cycles observed\n")
	}
}

// MarshalJSONReport returns the report as one JSON document (used by
// /debug/lockdep/report?format=json).
func (d *Lockdep) MarshalJSONReport() ([]byte, error) {
	return json.MarshalIndent(struct {
		Stats      Stats              `json:"stats"`
		Inversions []*InversionReport `json:"inversions"`
		WaitFor    WaitForExport      `json:"wait_for"`
	}{
		Stats:      d.Stats(),
		Inversions: d.Inversions(),
		WaitFor:    d.WaitForJSON(),
	}, "", "  ")
}
