package lockscope

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteJSON writes the series as indented JSON. Output is deterministic
// for a given series: field order follows the struct definitions and
// site order is fixed at sampling time.
func (s Series) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// csvHeader is the fixed CSV column order: the Sample scalar fields in
// declaration order, then the fired-anomaly count and the window's
// hottest site.
const csvHeader = "index,at_ns,window_ns," +
	"slow_per_sec,cas_fail_per_sec,cas_fail_ratio," +
	"inflations_contention,inflations_overflow,inflations_wait," +
	"inflations_per_sec,parks_per_sec," +
	"acquire_p50_ns,acquire_p99_ns,park_p50_ns,park_p99_ns,hold_p50_ns,hold_p99_ns," +
	"anomalies,top_site"

// WriteCSV writes the series as one row per sample under a fixed
// header. Floats use the shortest round-trip representation, so output
// is byte-identical across runs for identical samples. Site timelines
// beyond the hottest label and the anomaly log itself are JSON-only.
func (s Series) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(csvHeader)
	b.WriteByte('\n')
	for _, sm := range s.Samples {
		topSite := ""
		if len(sm.Sites) > 0 {
			topSite = sm.Sites[0].Label
		}
		cols := []string{
			strconv.FormatUint(sm.Index, 10),
			strconv.FormatInt(sm.AtNs, 10),
			strconv.FormatInt(sm.WindowNs, 10),
			fmtFloat(sm.SlowPerSec),
			fmtFloat(sm.CASFailPerSec),
			fmtFloat(sm.CASFailRatio),
			strconv.FormatUint(sm.Inflations.Contention, 10),
			strconv.FormatUint(sm.Inflations.Overflow, 10),
			strconv.FormatUint(sm.Inflations.Wait, 10),
			fmtFloat(sm.InflationsPerSec),
			fmtFloat(sm.ParksPerSec),
			strconv.FormatUint(sm.AcquireP50Ns, 10),
			strconv.FormatUint(sm.AcquireP99Ns, 10),
			strconv.FormatUint(sm.ParkP50Ns, 10),
			strconv.FormatUint(sm.ParkP99Ns, 10),
			strconv.FormatUint(sm.HoldP50Ns, 10),
			strconv.FormatUint(sm.HoldP99Ns, 10),
			strconv.Itoa(len(sm.Anomalies)),
			csvQuote(topSite),
		}
		b.WriteString(strings.Join(cols, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtFloat renders a rate with the shortest representation that
// round-trips, the same contract encoding/json uses.
func fmtFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// csvQuote quotes a field per RFC 4180 when it contains a delimiter,
// quote, or newline (site labels carry parentheses and colons, and VM
// labels could in principle carry anything).
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Sparkline renders values as a unicode block-character strip (the
// terminal timeline of lockmon -scope), scaled to the series' own
// maximum. Zero-width input yields the empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		if v < 0 {
			v = 0
		}
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[i])
	}
	return b.String()
}

// FormatSampleLine renders one sample as the single-line terminal form
// used by lockmon -scope.
func FormatSampleLine(sm Sample, spark string) string {
	line := fmt.Sprintf("lockscope: slow/s %.0f %s cas-fail %.1f%% park-p99 %s hold-p99 %s",
		sm.SlowPerSec, spark, 100*sm.CASFailRatio,
		fmtNs(sm.ParkP99Ns), fmtNs(sm.HoldP99Ns))
	if len(sm.Sites) > 0 {
		line += " top " + sm.Sites[0].Label
	}
	for _, a := range sm.Anomalies {
		line += fmt.Sprintf("  !! %s spike %.3g (baseline %.3g)", a.Metric, a.Value, a.Mean)
	}
	return line
}

// fmtNs renders a nanosecond value compactly.
func fmtNs(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
