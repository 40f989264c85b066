package main

import (
	"fmt"
	"math"
	"sort"

	"thinlock/internal/telemetry"
)

// metric is one reported number. A metric the implementation or the
// workload does not produce (Biased has no deflation; reacquire makes no
// vm.Run calls) reads 0 and says why in Absent.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Absent string  `json:"absent,omitempty"`
}

// ledgerTolerance is how far the traced sample time, less what tracing
// itself costs, may sit from the untraced one before the ledger is marked
// as not adding up. Timing every lock call also costs cache and branch
// predictor state that the cost loop does not see, and on the threaded
// workloads it lengthens critical sections, which changes contention.
const ledgerTolerance = 0.25

// ledgerRow splits one implementation's traced thread time, net of
// tracing, into the layers the workloads time, and compares the traced
// sample time, less what tracing costs, with the untraced one.
type ledgerRow struct {
	Impl          string  `json:"impl"`
	ThreadMs      float64 `json:"thread_ms"`
	WorkloadShare float64 `json:"workload_share"`
	JCLShare      float64 `json:"jcl_share"`
	VMShare       float64 `json:"vm_share"`
	LockShare     float64 `json:"lockapi_share"`
	TracedMs      float64 `json:"traced_ms"`
	TracingMs     float64 `json:"tracing_ms"`
	UntracedMs    float64 `json:"untraced_ms"`
	Remainder     float64 `json:"remainder"`
	AddsUp        bool    `json:"adds_up"`
}

// walls returns impl's successful sample times in a phase, in ns.
func (r *runner) walls(impl, phase string) []float64 {
	return r.field(impl, phase, func(s sampleRecord) float64 { return float64(s.WallNs) })
}

func (r *runner) field(impl, phase string, f func(sampleRecord) float64) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.Impl == impl && s.Phase == phase && s.Error == "" {
			out = append(out, f(s))
		}
	}
	return out
}

// refCalibMs defines the reference second throughput is reported in:
// one in which the calibration kernel takes 8 ms, about what it takes on
// the 2-vCPU machine the benchmark was written on.
const refCalibMs = 8.0

// refScale converts this run's wall-clock seconds to reference seconds.
// The calibration times of a run fall into two clusters, whose shares
// stay put from run to run while a median jumps between them, so the
// scale uses their mean less the lowest and highest tenth.
func (r *runner) refScale() float64 { return refCalibMs / trimmedMean(r.calibMs) }

// refSeconds is impl's typical sample time in a phase, in reference
// seconds: the lower quartile of its successful samples, scaled by
// refCalibMs over the run's typical calibration time. On a shared host
// the machine's speed drifts by several percent over minutes and
// neighbours slow some samples for seconds at a time; the scaling
// removes the first and the lower quartile ignores the second (see
// README.md, "Why the lower quartile in reference seconds").
func (r *runner) refSeconds(impl, phase string) float64 {
	return percentile(r.walls(impl, phase), 0.25) / 1e9 * r.refScale()
}

func (r *runner) opsPerS(impl, phase string) float64 {
	return float64(r.ops) / r.refSeconds(impl, phase)
}

// endToEnd returns the untraced metrics a user of the lock layer sees.
// Set-up time is the lower quartile in reference seconds too: on
// monitor-churn a run's set-up times fall into two clusters, near 3.5 and
// 6 ms, and a median lands in either from run to run.
func (r *runner) endToEnd() []metric {
	out := []metric{{Name: "setup_s", Unit: "s", Value: percentile(r.setupS, 0.25) * r.refScale()}}
	for _, impl := range measuredImpls {
		out = append(out, metric{Name: impl + ".ops_per_s", Unit: "ops/s", Value: r.opsPerS(impl, "untraced")})
	}
	for _, impl := range measuredImpls {
		kb := r.field(impl, "untraced", func(s sampleRecord) float64 { return float64(s.RetainedBytes) / 1024 })
		out = append(out, metric{Name: impl + ".retained_kb", Unit: "KiB", Value: median(kb)})
	}
	return clean(out)
}

// perLayer returns the traced run's metrics of single layers. Times the
// decorator records are net of its own clock read (tc.CallIn), and layer
// self times net of all of tracing's cost (see cost.net).
func (r *runner) perLayer(tc cost) []metric {
	var out []metric
	add := func(name, unit string, v float64, absent string) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, Absent: absent})
	}
	quantile := func(h telemetry.HistSnapshot, q float64, why string) (float64, string) {
		if h.Count == 0 {
			return 0, why
		}
		return float64(h.Quantile(q)), ""
	}
	lockQuantile := func(h telemetry.HistSnapshot, q float64, why string) (float64, string) {
		v, why := quantile(h, q, why)
		if why != "" {
			return 0, why
		}
		return max(v-tc.CallIn, 0), ""
	}
	for _, impl := range measuredImpls {
		c := r.counters["traced/"+impl]
		tot := r.tracers[impl].totals()
		lt := tc.net(tot)
		snap := r.telem[impl]
		ops := c["samples"] * float64(r.ops)
		perKop := func(names ...string) float64 {
			var n uint64
			for _, name := range names {
				n += snap.Counter(name)
			}
			return float64(n) / ops * 1000
		}
		count := func(name, why string) (float64, string) {
			v, ok := c[name]
			if !ok {
				return 0, why
			}
			return v / c["samples"], ""
		}
		p := impl + "."
		v, why := lockQuantile(tot.hist[callLock], 0.5, "no Lock calls")
		add(p+"lockapi.lock_ns.p50", "ns", v, why)
		v, why = lockQuantile(tot.hist[callLock], 0.99, "no Lock calls")
		add(p+"lockapi.lock_ns.p99", "ns", v, why)
		v, why = lockQuantile(tot.hist[callUnlock], 0.5, "no Unlock calls")
		add(p+"lockapi.unlock_ns.p50", "ns", v, why)
		v, why = lockQuantile(tot.hist[callWait], 0.5, "the workload makes no Wait calls")
		add(p+"lockapi.wait_ns.p50", "ns", v, why)
		add(p+"lockapi.busy_share", "ratio", lt.lock/lt.thread, "")
		add(p+"slowpath.entries_per_kop", "1/kop", perKop("slow_path_entries"), "")
		fails := float64(snap.Counter("cas_failures"))
		add(p+"slowpath.cas_fail_ratio", "ratio", fails/(ops+fails), "")
		add(p+"slowpath.spin_rounds_per_kop", "1/kop", perKop("spin_rounds"), "")
		v, why = quantile(snap.Histograms["acquire_slow_ns"], 0.99, "no slow-path acquisitions")
		add(p+"slowpath.acquire_ns.p99", "ns", v, why)
		add(p+"threading.parks_per_kop", "1/kop", perKop("monitor_contended_entries", "queued_parks", "waits"), "")
		v, why = quantile(snap.Histograms["monitor_stall_ns"], 0.99, "no entry-queue stalls")
		add(p+"monitor.stall_ns.p99", "ns", v, why)
		add(p+"monitor.handoffs_per_kop", "1/kop", perKop("monitor_handoffs"), "")
		v, why = count("inflations", impl+" keeps no inflation count")
		add(p+"monitor.inflations", "count", v, why)
		v, why = count("deflations", impl+" never deflates")
		add(p+"monitor.deflations", "count", v, why)
		v, why = count("table_span", impl+" has no monitor table")
		add(p+"monitor.table_span", "count", v, why)
		add(p+"heap.alloc_bytes_per_op", "B/op", median(r.field(impl, "untraced", func(s sampleRecord) float64 { return float64(s.AllocBytes) }))/float64(r.ops), "")
		add(p+"heap.gc_cycles", "count", median(r.field(impl, "untraced", func(s sampleRecord) float64 { return float64(s.GCCycles) })), "")
		add(p+"trace_overhead", "ratio", r.refSeconds(impl, "untraced")/r.refSeconds(impl, "traced"), "")
		add(p+"sample_ms.p75", "ms", percentile(r.walls(impl, "untraced"), 0.75)/1e6, "")
	}

	bc := r.counters["traced/Biased"]
	bsnap := r.telem["Biased"]
	bops := bc["samples"] * float64(r.ops)
	add("Biased.biased.install_per_kop", "1/kop", float64(bsnap.Counter("bias_installs"))/bops*1000, "")
	add("Biased.biased.reacquire_share", "ratio", float64(bsnap.Counter("biased_acquires"))/bops, "")
	add("Biased.biased.revocations", "count", bc["revocations"]/bc["samples"], "")
	v, why := quantile(bsnap.Histograms["bias_handshake_ns"], 0.99, "no revocation handshakes")
	add("Biased.biased.handshake_ns.p99", "ns", v, why)

	tl := r.tracers["ThinLock"].totals()
	tlNet := tc.net(tl)
	tlOps := r.counters["traced/ThinLock"]["samples"] * float64(r.ops)
	if tl.layerCalls[layerVM] > 0 {
		add("ThinLock.vm.self_ns_per_op", "ns/op", tlNet.layer[layerVM]/tlOps, "")
	} else {
		add("ThinLock.vm.self_ns_per_op", "ns/op", 0, "the workload makes no vm.Run calls")
	}
	if n := tl.layerCalls[layerJCL]; n > 0 {
		add("ThinLock.jcl.self_ns_per_call", "ns/call", tlNet.layer[layerJCL]/float64(n), "")
	} else {
		add("ThinLock.jcl.self_ns_per_call", "ns/call", 0, "the workload makes no jcl calls")
	}

	add("JDK111.ops_per_s", "ops/s", r.opsPerS("JDK111", "untraced"), "")
	add("IBM112.ops_per_s", "ops/s", r.opsPerS("IBM112", "untraced"), "")
	add("ThinLock.speedup_vs_JDK111", "ratio", r.refSeconds("JDK111", "untraced")/r.refSeconds("ThinLock", "untraced"), "")
	jc := r.counters["untraced/JDK111"]
	add("JDK111.monitorcache.miss_ratio", "ratio", jc["misses"]/jc["lookups"], "")
	ic := r.counters["untraced/IBM112"]
	add("IBM112.hotlocks.cold_share", "ratio", ic["cold_ops"]/(ic["hot_ops"]+ic["cold_ops"]), "")

	add("machine.calib_ms.p50", "ms", median(r.calibMs), "")
	add("machine.calib_ms.iqr_share", "ratio", r.calibIQRShare(), "")
	attempted, failed := r.tally()
	add("fail_ratio", "ratio", float64(failed)/float64(attempted), "")
	return clean(out)
}

func (r *runner) calibIQRShare() float64 {
	q1, _, q3 := quartiles(r.calibMs)
	return (q3 - q1) / median(r.calibMs)
}

// noisyShare is the calibration spread past which a run is marked noisy.
const noisyShare = 0.15

func (r *runner) noisy() bool { return r.calibIQRShare() > noisyShare }

func (r *runner) tally() (attempted, failed int) {
	for _, s := range r.samples {
		attempted++
		if s.Error != "" {
			failed++
		}
	}
	return attempted, failed
}

// ledger splits each measured implementation's traced thread time into
// workload, jcl, vm and lock-API self time, and checks that the traced
// sample time, less what tracing itself costs, comes back to the
// untraced one (both lower quartiles, in wall-clock ms). The tracing cost
// is divided among the workload's threads, which pay it in parallel.
func (r *runner) ledger(tc cost) []ledgerRow {
	var rows []ledgerRow
	for _, impl := range measuredImpls {
		lt := tc.net(r.tracers[impl].totals())
		n := r.counters["traced/"+impl]["samples"]
		row := ledgerRow{
			Impl:          impl,
			ThreadMs:      lt.thread / n / 1e6,
			WorkloadShare: lt.workload / lt.thread,
			JCLShare:      lt.layer[layerJCL] / lt.thread,
			VMShare:       lt.layer[layerVM] / lt.thread,
			LockShare:     lt.lock / lt.thread,
			TracedMs:      percentile(r.walls(impl, "traced"), 0.25) / 1e6,
			TracingMs:     lt.tracing / n / float64(r.cfg.workload.threads) / 1e6,
			UntracedMs:    percentile(r.walls(impl, "untraced"), 0.25) / 1e6,
		}
		row.Remainder = (row.TracedMs - row.TracingMs - row.UntracedMs) / row.UntracedMs
		row.AddsUp = math.Abs(row.Remainder) <= ledgerTolerance
		rows = append(rows, row)
	}
	return rows
}

func (row ledgerRow) String() string {
	verdict := "adds up"
	if !row.AddsUp {
		verdict = "does not add up"
	}
	return fmt.Sprintf("ledger %-16s thread %8.2f ms: workload %5.1f%%  jcl %5.1f%%  vm %5.1f%%  lockapi %5.1f%% | traced %.2f ms - tracing %.2f ms vs untraced %.2f ms: remainder %+.1f%% (tolerance ±%.0f%%, %s)",
		row.Impl, row.ThreadMs, 100*row.WorkloadShare, 100*row.JCLShare, 100*row.VMShare, 100*row.LockShare,
		row.TracedMs, row.TracingMs, row.UntracedMs, 100*row.Remainder, 100*ledgerTolerance, verdict)
}

// clean replaces a value that is not a finite number, which JSON cannot
// carry, by an absent 0.
func clean(ms []metric) []metric {
	for i := range ms {
		if math.IsNaN(ms[i].Value) || math.IsInf(ms[i].Value, 0) {
			ms[i].Value = 0
			if ms[i].Absent == "" {
				ms[i].Absent = "not measured: no successful samples"
			}
		}
	}
	return ms
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// trimmedMean returns the mean of xs without its lowest and highest
// tenth.
func trimmedMean(xs []float64) float64 {
	s := sorted(xs)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// percentile returns the nearest-rank q-quantile: with 40 samples, p75
// is the highest percentile that still has 10 samples beyond it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// quartiles computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		m := median(s)
		return m, m, m
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
