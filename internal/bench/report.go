package bench

import (
	"fmt"
	"strings"
)

// FormatTable renders a ResultSet as a fixed-width text table: one row
// per benchmark, one column per implementation, values in ms per million
// operations (the unit of the paper's Figure 4 bars).
func FormatTable(rs *ResultSet, title string) string {
	return title + "\n" + layout(rs, rs.Benchmarks(), rs.Impls(), true, func(r Result) string {
		return fmt.Sprintf("%.1f", r.MsPerMillion())
	}) + "(ms per 10^6 operations; lower is better)\n"
}

// FormatMacroTable renders whole-run results (Ops == 1) in milliseconds
// per run.
func FormatMacroTable(rs *ResultSet, title string) string {
	return title + "\n" + layout(rs, rs.Benchmarks(), rs.Impls(), true, func(r Result) string {
		return fmt.Sprintf("%.1f", float64(r.Elapsed.Microseconds())/1000)
	}) + "(ms per run; lower is better)\n"
}

// FormatSpeedups renders each implementation's speedup over the named
// baseline, the form of the paper's Figure 5 bars (speedup over JDK111).
// Benchmarks without a baseline result are left out.
func FormatSpeedups(rs *ResultSet, baseline, title string) string {
	var impls []string
	for _, impl := range rs.Impls() {
		if impl != baseline {
			impls = append(impls, impl)
		}
	}
	var keys []Result
	for _, key := range rs.Benchmarks() {
		if _, ok := rs.Get(key.Benchmark, baseline, key.Param); ok {
			keys = append(keys, key)
		}
	}
	return fmt.Sprintf("%s (speedup over %s; >1 is faster)\n", title, baseline) +
		layout(rs, keys, impls, false, func(r Result) string {
			base, _ := rs.Get(r.Benchmark, baseline, r.Param)
			return fmt.Sprintf("%.2fx", r.Speedup(base))
		})
}

// layout is the one table layout of every report here: a 20-wide
// column of benchmark keys, then one right-aligned column per
// implementation, with "-" where rs holds no result. A column is 14
// wide, or one wider than its name or widest cell, so neighbouring
// columns always keep a space between them. With rule, a dashed line
// sits under the header.
func layout(rs *ResultSet, keys []Result, impls []string, rule bool, cell func(Result) string) string {
	cells := make([][]string, len(keys))
	widths := make([]int, len(impls))
	for j, impl := range impls {
		widths[j] = max(14, len(impl)+1)
	}
	for i, key := range keys {
		cells[i] = make([]string, len(impls))
		for j, impl := range impls {
			c := "-"
			if r, ok := rs.Get(key.Benchmark, impl, key.Param); ok {
				c = cell(r)
			}
			cells[i][j] = c
			widths[j] = max(widths[j], len(c)+1)
		}
	}
	var b strings.Builder
	width := 20
	fmt.Fprintf(&b, "%-20s", "benchmark")
	for j, impl := range impls {
		fmt.Fprintf(&b, "%*s", widths[j], impl)
		width += widths[j]
	}
	b.WriteByte('\n')
	if rule {
		b.WriteString(strings.Repeat("-", width))
		b.WriteByte('\n')
	}
	for i, key := range keys {
		fmt.Fprintf(&b, "%-20s", key.Key())
		for j := range impls {
			fmt.Fprintf(&b, "%*s", widths[j], cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatKernelList renders Table 2.
func FormatKernelList() string {
	var b strings.Builder
	b.WriteString("Table 2: Micro-Benchmarks\n")
	for _, k := range Kernels() {
		name := k.Name
		if k.Swept {
			name += " n"
		}
		fmt.Fprintf(&b, "  %-16s %s\n", name, k.Description)
	}
	return b.String()
}

// Predict implements the paper's §3.4 cross-check: from a micro-benchmark
// cost difference and an operation count, predict the absolute time saved
// on a macro run. The paper predicts 6.5s of javalex speedup from 2.4M
// synchronized calls at 2.7s per million, against 6.6s measured.
func Predict(fast, slow Result, operations int64) float64 {
	perOpNs := slow.NsPerOp() - fast.NsPerOp()
	return perOpNs * float64(operations) / 1e9 // seconds
}
