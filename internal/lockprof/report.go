package lockprof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"thinlock/internal/lockevent"
	"thinlock/internal/telemetry"
)

// SiteStat is one site's immutable snapshot, symbolized for display.
type SiteStat struct {
	// Label names the site: the first non-lock-machinery frame for Go
	// sites, or "Method@pc" for interpreter sites.
	Label string `json:"label"`
	// Kind is "vm" or "go".
	Kind string `json:"kind"`
	// Frames is the symbolized stack, leaf first.
	Frames []lockevent.Frame `json:"frames"`

	SlowEntries uint64            `json:"slow_entries"`
	CASFailures uint64            `json:"cas_failures"`
	Inflations  map[string]uint64 `json:"inflations,omitempty"`
	Revocations map[string]uint64 `json:"revocations,omitempty"`
	ParkNs      uint64            `json:"park_ns"`
	DelayNs     uint64            `json:"delay_ns"`
	HoldNs      uint64            `json:"hold_ns"`
}

// InflationTotal sums the per-cause inflation counts.
func (s SiteStat) InflationTotal() uint64 {
	var n uint64
	for _, v := range s.Inflations {
		n += v
	}
	return n
}

// RevocationTotal sums the per-cause bias revocation counts.
func (s SiteStat) RevocationTotal() uint64 {
	var n uint64
	for _, v := range s.Revocations {
		n += v
	}
	return n
}

// ObjectStat is one lock object's immutable snapshot.
type ObjectStat struct {
	ID    uint64 `json:"id"`
	Class string `json:"class"`

	SlowEntries uint64 `json:"slow_entries"`
	Inflations  uint64 `json:"inflations"`
	Revocations uint64 `json:"revocations,omitempty"`
	ParkNs      uint64 `json:"park_ns"`
	DelayNs     uint64 `json:"delay_ns"`
	HoldNs      uint64 `json:"hold_ns"`
}

// Snapshot is a point-in-time copy of the profiler's tables, ordered by
// delay (sites) and id (objects). Counters are read with atomic loads
// but not as one consistent cut; totals may straddle in-flight events.
type Snapshot struct {
	// SampleEvery is the sampling interval the counts were taken at;
	// multiply sampled quantities by it to estimate true totals.
	SampleEvery int `json:"sample_every"`
	// DurationNs is how long the profiler had been installed.
	DurationNs int64 `json:"duration_ns"`
	// SiteDrops/ObjectDrops count events discarded by the bounded tables.
	SiteDrops   uint64 `json:"site_drops"`
	ObjectDrops uint64 `json:"object_drops"`

	Sites   []SiteStat   `json:"sites"`
	Objects []ObjectStat `json:"objects"`
}

// Snapshot captures the profiler's current tables.
func (p *Profiler) Snapshot() *Snapshot {
	snap := &Snapshot{
		SampleEvery: int(p.sampleEvery),
		DurationNs:  lockevent.Now() - p.startNs,
	}
	snap.SiteDrops, snap.ObjectDrops = p.Drops()

	for _, r := range p.sites.snapshot() {
		frames := r.Key.Frames()
		st := SiteStat{
			Label:       lockevent.Label(frames),
			Kind:        "go",
			Frames:      frames,
			SlowEntries: r.SlowEntries.Load(),
			CASFailures: r.CASFailures.Load(),
			ParkNs:      r.ParkNs.Load(),
			DelayNs:     r.DelayNs.Load(),
			HoldNs:      r.HoldNs.Load(),
		}
		if r.Key.IsVM() {
			st.Kind = "vm"
			st.Label = fmt.Sprintf("%s@%d", r.Key.VMMethod, r.Key.VMPC)
			if r.Key.VMPC < 0 {
				st.Label = r.Key.VMMethod + "@sync-entry"
			}
		}
		for c := InflationCause(0); c < NumCauses; c++ {
			if n := r.Inflations[c].Load(); n > 0 {
				if st.Inflations == nil {
					st.Inflations = make(map[string]uint64, int(NumCauses))
				}
				st.Inflations[c.String()] = n
			}
			if n := r.Revocations[c].Load(); n > 0 {
				if st.Revocations == nil {
					st.Revocations = make(map[string]uint64, int(NumCauses))
				}
				st.Revocations[c.String()] = n
			}
		}
		snap.Sites = append(snap.Sites, st)
	}
	snap.Sites = mergeSitesByLabel(snap.Sites)
	sort.Slice(snap.Sites, func(i, j int) bool {
		a, b := &snap.Sites[i], &snap.Sites[j]
		if a.DelayNs != b.DelayNs {
			return a.DelayNs > b.DelayNs
		}
		if a.SlowEntries != b.SlowEntries {
			return a.SlowEntries > b.SlowEntries
		}
		return a.Label < b.Label
	})

	for _, r := range p.objs.snapshot() {
		snap.Objects = append(snap.Objects, ObjectStat{
			ID:          r.ID,
			Class:       r.Class,
			SlowEntries: r.SlowEntries.Load(),
			Inflations:  r.Inflations.Load(),
			Revocations: r.Revocations.Load(),
			ParkNs:      r.ParkNs.Load(),
			DelayNs:     r.DelayNs.Load(),
			HoldNs:      r.HoldNs.Load(),
		})
	}
	sort.Slice(snap.Objects, func(i, j int) bool {
		a, b := &snap.Objects[i], &snap.Objects[j]
		if a.DelayNs != b.DelayNs {
			return a.DelayNs > b.DelayNs
		}
		if a.SlowEntries != b.SlowEntries {
			return a.SlowEntries > b.SlowEntries
		}
		return a.ID < b.ID
	})
	return snap
}

// mergeSitesByLabel folds records that display as the same site into
// one stat. The tables key records by exact PC chain, and the same
// logical site can yield several chains: a sampled slow-path entry and
// an unsampled inflation capture their stacks at different depths in
// the lock machinery, differing only in frames the label skips. Keeping
// them split would show one row carrying the slow entries and a twin
// carrying the inflations. The survivor keeps the frames of the record
// with the most slow entries (the stack users will want to see).
func mergeSitesByLabel(sites []SiteStat) []SiteStat {
	type labelKey struct {
		label, kind string
	}
	idx := make(map[labelKey]int, len(sites))
	out := sites[:0]
	for _, st := range sites {
		k := labelKey{st.Label, st.Kind}
		i, ok := idx[k]
		if !ok {
			idx[k] = len(out)
			out = append(out, st)
			continue
		}
		dst := &out[i]
		if st.SlowEntries > dst.SlowEntries {
			dst.Frames = st.Frames
		}
		dst.SlowEntries += st.SlowEntries
		dst.CASFailures += st.CASFailures
		dst.ParkNs += st.ParkNs
		dst.DelayNs += st.DelayNs
		dst.HoldNs += st.HoldNs
		for cause, n := range st.Inflations {
			if dst.Inflations == nil {
				dst.Inflations = make(map[string]uint64, int(NumCauses))
			}
			dst.Inflations[cause] += n
		}
		for cause, n := range st.Revocations {
			if dst.Revocations == nil {
				dst.Revocations = make(map[string]uint64, int(NumCauses))
			}
			dst.Revocations[cause] += n
		}
	}
	return out
}

// TopSites returns the n hottest sites by accumulated delay.
func (s *Snapshot) TopSites(n int) []SiteStat {
	if n <= 0 || n > len(s.Sites) {
		n = len(s.Sites)
	}
	return s.Sites[:n]
}

// TopObjects returns the n hottest objects by accumulated delay.
func (s *Snapshot) TopObjects(n int) []ObjectStat {
	if n <= 0 || n > len(s.Objects) {
		n = len(s.Objects)
	}
	return s.Objects[:n]
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTop writes a human-readable top-n hot-lock report: the hottest
// sites and objects with their contention dimensions.
func (s *Snapshot) WriteTop(w io.Writer, n int) error {
	sites := s.TopSites(n)
	objs := s.TopObjects(n)
	if _, err := fmt.Fprintf(w, "lockprof: %d sites, %d objects (sample 1/%d, %.3fs)\n",
		len(s.Sites), len(s.Objects), s.SampleEvery, float64(s.DurationNs)/1e9); err != nil {
		return err
	}
	if s.SiteDrops > 0 || s.ObjectDrops > 0 {
		if _, err := fmt.Fprintf(w, "  dropped: %d site events, %d object events (tables full)\n",
			s.SiteDrops, s.ObjectDrops); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nTop %d lock sites by delay:\n", len(sites)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %-10s %-8s %-12s %-12s %-12s  %s\n",
		"SLOWENTRY", "CASFAIL", "INFLATE", "DELAY", "PARK", "HOLD", "SITE"); err != nil {
		return err
	}
	for _, st := range sites {
		if _, err := fmt.Fprintf(w, "%-10d %-10d %-8d %-12s %-12s %-12s  %s\n",
			st.SlowEntries, st.CASFailures, st.InflationTotal(),
			fmtNs(st.DelayNs), fmtNs(st.ParkNs), fmtNs(st.HoldNs), st.Label); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nTop %d lock objects by delay:\n", len(objs)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %-8s %-12s %-12s %-12s  %s\n",
		"SLOWENTRY", "INFLATE", "DELAY", "PARK", "HOLD", "OBJECT"); err != nil {
		return err
	}
	for _, o := range objs {
		if _, err := fmt.Fprintf(w, "%-10d %-8d %-12s %-12s %-12s  %s#%d\n",
			o.SlowEntries, o.Inflations,
			fmtNs(o.DelayNs), fmtNs(o.ParkNs), fmtNs(o.HoldNs), o.Class, o.ID); err != nil {
			return err
		}
	}
	return nil
}

// fmtNs renders a nanosecond total compactly.
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

// WritePrometheus writes the snapshot in Prometheus text exposition
// format with site labels, under the shared thinlock_ prefix. Label
// values are escaped per the exposition format (see
// telemetry.EscapeLabelValue).
func (s *Snapshot) WritePrometheus(w io.Writer, topN int) error {
	sites := s.TopSites(topN)

	type metric struct {
		name, help string
		value      func(SiteStat) uint64
	}
	metrics := []metric{
		{"lockprof_slow_entries", "Sampled slow-path lock acquisitions by site.",
			func(st SiteStat) uint64 { return st.SlowEntries }},
		{"lockprof_cas_failures", "Lock-word CAS retries by site.",
			func(st SiteStat) uint64 { return st.CASFailures }},
		{"lockprof_delay_ns", "Slow-path acquisition delay by site (ns).",
			func(st SiteStat) uint64 { return st.DelayNs }},
		{"lockprof_park_ns", "Blocked (parked) time by site (ns).",
			func(st SiteStat) uint64 { return st.ParkNs }},
		{"lockprof_hold_ns", "Sampled lock hold time by site (ns).",
			func(st SiteStat) uint64 { return st.HoldNs }},
	}
	for _, m := range metrics {
		name := telemetry.PromPrefix + m.name + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, m.help, name); err != nil {
			return err
		}
		for _, st := range sites {
			if _, err := fmt.Fprintf(w, "%s{site=\"%s\",kind=\"%s\"} %d\n",
				name, telemetry.EscapeLabelValue(st.Label), st.Kind, m.value(st)); err != nil {
				return err
			}
		}
	}

	name := telemetry.PromPrefix + "lockprof_inflations_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Lock inflations by site and cause.\n# TYPE %s counter\n", name, name); err != nil {
		return err
	}
	for _, st := range sites {
		for _, cc := range sortedCauses(st.Inflations) {
			if _, err := fmt.Fprintf(w, "%s{site=\"%s\",kind=\"%s\",cause=\"%s\"} %d\n",
				name, telemetry.EscapeLabelValue(st.Label), st.Kind, cc.cause, cc.count); err != nil {
				return err
			}
		}
	}

	name = telemetry.PromPrefix + "lockprof_revocations_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Bias revocations by site and cause.\n# TYPE %s counter\n", name, name); err != nil {
		return err
	}
	for _, st := range sites {
		for _, cc := range sortedCauses(st.Revocations) {
			if _, err := fmt.Fprintf(w, "%s{site=\"%s\",kind=\"%s\",cause=\"%s\"} %d\n",
				name, telemetry.EscapeLabelValue(st.Label), st.Kind, cc.cause, cc.count); err != nil {
				return err
			}
		}
	}

	for _, g := range []struct {
		name, help string
		value      uint64
	}{
		{"lockprof_sites", "Distinct lock sites observed.", uint64(len(s.Sites))},
		{"lockprof_objects", "Distinct lock objects observed.", uint64(len(s.Objects))},
		{"lockprof_dropped_events_total", "Events dropped by the bounded profiler tables.",
			s.SiteDrops + s.ObjectDrops},
	} {
		fq := telemetry.PromPrefix + g.name
		kind := "gauge"
		if len(fq) > len("_total") && fq[len(fq)-len("_total"):] == "_total" {
			kind = "counter"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", fq, g.help, fq, kind, fq, g.value); err != nil {
			return err
		}
	}
	return nil
}

type causeCount struct {
	cause string
	count uint64
}

// sortedCauses orders a cause map for deterministic output.
func sortedCauses(m map[string]uint64) []causeCount {
	out := make([]causeCount, 0, len(m))
	for c, n := range m {
		out = append(out, causeCount{c, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cause < out[j].cause })
	return out
}
