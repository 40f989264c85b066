// Command lockmon runs a workload with the always-on telemetry layer
// and the site-attributed contention profiler enabled, and reports what
// the locks did: live counter rates, a top-N hot-lock report, an
// expvar-style JSON snapshot, a Prometheus text-format snapshot, a
// pprof contention profile, and a Chrome trace-event file loadable in
// ui.perfetto.dev.
//
// Usage:
//
//	lockmon -list
//	lockmon [-workload name] [-impl name] [-size N] [-live] [-scope] [-interval D]
//	        [-json file] [-prom file] [-trace file] [-pprof file]
//	        [-top N] [-prof-rate N] [-repeat N]
//	        [-serve addr] [-hold D]
//	        [-lockdep] [-lockdep-dot file] [-watchdog D]
//
// Output files use "-" for stdout. The trace wraps the locker in the
// locktrace recorder, which serializes events through a mutex; leave it
// off when the counters alone are wanted.
//
// With -serve, lockmon binds addr (e.g. :8080, or 127.0.0.1:0 for an
// ephemeral port), prints the bound address, and exposes the live
// observability endpoints while the workload runs:
//
//	/metrics                     Prometheus text (telemetry + lockprof)
//	/debug/vars                  merged JSON snapshot
//	/debug/lockprof/top          top-N hot locks
//	/debug/pprof/lockcontention  pprof contention profile
//	/debug/lockdep/graph         lock-order graph (DOT or JSON)
//	/debug/lockdep/waitfor       live wait-for snapshot + cycle detector
//	/debug/lockdep/report        full lockdep report
//	/debug/lockscope/            live contention dashboard (with -scope)
//	/debug/lockscope/series      windowed time-series (JSON or CSV)
//	/debug/lockscope/stream      live sample stream (server-sent events)
//
// A SIGINT or SIGTERM drains the HTTP server gracefully (in-flight
// scrapes complete), prints a final telemetry snapshot, and exits 0.
//
// -repeat reruns the workload to lengthen the observation window, and
// -hold keeps the server up after the last run so scrapers can collect
// the final state. -hold has no effect without -serve (lockmon warns
// and ignores it).
//
// -scope enables the lockscope time-series sampler: live sampling of
// windowed contention rates at the chosen -interval cadence, printed
// per window to stderr with a slow-path-rate sparkline, with an anomaly
// summary after the run. Combined with -serve, the same sampler backs
// the /debug/lockscope endpoints and the live dashboard.
//
// -lockdep enables the lock-order watchdog and prints its report
// (inversions, wait-for state) after the run; -lockdep-dot also writes
// the order graph in Graphviz DOT. -watchdog D enables lockdep plus the
// stall watchdog: any blocking episode longer than D dumps the flight
// recorder to stderr and exits with status 3 — run the deliberately
// deadlocking hazard workloads (see -list) under it to see a full
// deadlock diagnosis. Run them under an implementation whose contenders
// park, such as -impl ThinLock-compact, so a deadlocked table idles
// instead of spinning.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thinlock/internal/bench"
	"thinlock/internal/jcl"
	"thinlock/internal/lockapi"
	"thinlock/internal/lockdep"
	"thinlock/internal/lockprof"
	"thinlock/internal/lockscope"
	"thinlock/internal/locktrace"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
	"thinlock/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list workloads and implementations, then exit")
	workload := flag.String("workload", "bankmt", "workload to run (see -list)")
	impl := flag.String("impl", "ThinLock", "lock implementation: "+strings.Join(bench.Names(bench.StandardImpls()), ", "))
	size := flag.Int("size", 0, "workload size (0 = the workload's default)")
	live := flag.Bool("live", false, "print live counter deltas to stderr while running")
	scope := flag.Bool("scope", false, "enable the lockscope time-series sampler (windowed rates at the -interval cadence, printed live to stderr; backs /debug/lockscope with -serve)")
	interval := flag.Duration("interval", 250*time.Millisecond, "live print and lockscope sampling interval")
	jsonOut := flag.String("json", "", "write expvar-style JSON snapshot to this file (- for stdout)")
	promOut := flag.String("prom", "", "write Prometheus text-format snapshot to this file (- for stdout)")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON to this file (- for stdout)")
	pprofOut := flag.String("pprof", "", "write pprof contention profile (gzip protobuf) to this file (- for stdout)")
	topN := flag.Int("top", 10, "print the top-N hot lock sites/objects after the run (0 disables)")
	profRate := flag.Int("prof-rate", 0, "profiler sampling interval: sample 1 in N slow-path entries (0 = default)")
	repeat := flag.Int("repeat", 1, "run the workload this many times")
	serve := flag.String("serve", "", "serve live observability HTTP endpoints on this address (e.g. :8080 or 127.0.0.1:0)")
	hold := flag.Duration("hold", 0, "with -serve, keep serving this long after the last run")
	useLockdep := flag.Bool("lockdep", false, "enable the lock-order watchdog; print its report after the run")
	lockdepDot := flag.String("lockdep-dot", "", "write the lock-order graph in Graphviz DOT to this file (- for stdout; implies -lockdep)")
	lockdepJSON := flag.String("lockdep-json", "", "write the lock-order graph as JSON to this file (- for stdout; implies -lockdep); diffable against the static graph via lockvet -runtime")
	watchdog := flag.Duration("watchdog", 0, "stall threshold (implies -lockdep): a wait this long dumps the flight recorder to stderr and exits 3")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lockmon: "+format+"\n", args...)
		os.Exit(1)
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range workloads.All() {
			mark := " "
			if w.Concurrent {
				mark = "*"
			}
			fmt.Printf("  %s %-12s (default size %d) %s\n", mark, w.Name, w.DefaultSize, w.Description)
		}
		fmt.Println("  (* = concurrent)")
		fmt.Println("hazard workloads (deadlock by design; run only under -watchdog):")
		for _, w := range workloads.Hazards() {
			fmt.Printf("  ! %-12s (default size %d) %s\n", w.Name, w.DefaultSize, w.Description)
		}
		fmt.Println("implementations:")
		for _, f := range bench.StandardImpls() {
			fmt.Printf("    %s\n", f.Name)
		}
		return
	}

	w, ok := workloads.ByName(*workload)
	if !ok {
		fail("unknown workload %q (try -list)", *workload)
	}
	f, ok := bench.Lookup(bench.StandardImpls(), *impl)
	if !ok {
		fail("unknown implementation %q (try -list)", *impl)
	}
	n := *size
	if n <= 0 {
		n = w.DefaultSize
	}
	if *repeat < 1 {
		*repeat = 1
	}

	var locker lockapi.Locker = f.New()
	var tracer *locktrace.Tracer
	if *traceOut != "" {
		tracer = locktrace.New(locker, 0)
		locker = tracer
	}

	if *hold > 0 && *serve == "" {
		fmt.Fprintln(os.Stderr, "lockmon: -hold has no effect without -serve")
	}

	m := telemetry.Enable(telemetry.New())
	defer telemetry.Disable()
	prof := lockprof.Enable(lockprof.New(lockprof.Config{SampleEvery: *profRate}))
	defer lockprof.Disable()

	var sc *lockscope.Scope
	cancelScope := func() {}
	scopeDone := make(chan struct{})
	if *scope {
		sc = lockscope.Enable(lockscope.New(lockscope.Config{Interval: *interval}))
		defer lockscope.Disable()
		var updates <-chan lockscope.Update
		updates, cancelScope = sc.Subscribe()
		go func() {
			defer close(scopeDone)
			// The sparkline tracks the slow-path rate over the most
			// recent windows, so a glance shows the trend, not just the
			// latest number.
			var rates []float64
			for u := range updates {
				rates = append(rates, u.Sample.SlowPerSec)
				if len(rates) > 30 {
					rates = rates[1:]
				}
				fmt.Fprintln(os.Stderr, lockscope.FormatSampleLine(u.Sample, lockscope.Sparkline(rates)))
			}
		}()
		sc.Start()
		defer sc.Stop()
	} else {
		close(scopeDone)
	}

	if *watchdog > 0 || *lockdepDot != "" || *lockdepJSON != "" {
		*useLockdep = true
	}
	var ld *lockdep.Lockdep
	if *useLockdep {
		ld = lockdep.Enable(lockdep.New())
		defer lockdep.Disable()
	}
	if *watchdog > 0 {
		wd := ld.StartWatchdog(lockdep.WatchdogOptions{
			Threshold: *watchdog,
			OnStall: func(sd lockdep.StallDump) {
				// A stall is the terminal diagnosis this mode exists for:
				// dump the flight recorder and exit distinctly so scripts
				// can assert "the watchdog fired" by status alone.
				sd.WriteText(os.Stderr)
				os.Exit(3)
			},
		})
		defer wd.Stop()
	}

	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fail("serve: %v", err)
		}
		// Printed on its own line so scripts can scrape the bound address
		// (useful with an ephemeral :0 port).
		fmt.Printf("lockmon: serving on http://%s\n", ln.Addr())
		srv := &http.Server{Handler: lockprof.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "lockmon: serve: %v\n", err)
			}
		}()
		defer srv.Close()
		// Graceful shutdown: drain in-flight scrapes, print a last
		// snapshot so the run is not lost, and exit cleanly.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(os.Stderr, "lockmon: %v: shutting down\n", s)
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(shutdownCtx); err != nil {
				fmt.Fprintf(os.Stderr, "lockmon: shutdown: %v\n", err)
			}
			fmt.Print(m.Snapshot().String())
			os.Exit(0)
		}()
	}

	ctx := jcl.NewContext(locker, object.NewHeap())
	reg := threading.NewRegistry()
	th, err := reg.Attach("main")
	if err != nil {
		fail("attach: %v", err)
	}

	stopLive := make(chan struct{})
	liveDone := make(chan struct{})
	if *live {
		go func() {
			defer close(liveDone)
			prev := m.Snapshot()
			tick := time.NewTicker(*interval)
			defer tick.Stop()
			for {
				select {
				case <-stopLive:
					return
				case <-tick.C:
					cur := m.Snapshot()
					printLive(os.Stderr, cur.Delta(prev))
					prev = cur
				}
			}
		}()
	}

	start := time.Now()
	var sum uint64
	for i := 0; i < *repeat; i++ {
		sum = w.Run(ctx, th, n)
	}
	elapsed := time.Since(start)

	close(stopLive)
	if *live {
		<-liveDone
	}

	snap := m.Snapshot()
	fmt.Printf("%s / %s size=%d runs=%d: checksum=%#x elapsed=%v\n", w.Name, f.Name, n, *repeat, sum, elapsed)
	fmt.Print(snap.String())

	psnap := prof.Snapshot()
	if *topN > 0 {
		fmt.Println()
		if err := psnap.WriteTop(os.Stdout, *topN); err != nil {
			fail("top: %v", err)
		}
	}

	if *jsonOut != "" {
		if err := writeTo(*jsonOut, snap.WriteJSON); err != nil {
			fail("json: %v", err)
		}
		if err := validateJSON(*jsonOut); err != nil {
			fail("json self-check: %v", err)
		}
	}
	if *promOut != "" {
		if err := writeTo(*promOut, snap.WritePrometheus); err != nil {
			fail("prom: %v", err)
		}
	}
	if *pprofOut != "" {
		if err := writeTo(*pprofOut, psnap.WritePprof); err != nil {
			fail("pprof: %v", err)
		}
		fmt.Printf("pprof: %d sites (inspect with `go tool pprof -top %s`)\n", len(psnap.Sites), *pprofOut)
	}
	if *traceOut != "" {
		events := tracer.Events()
		if err := writeTo(*traceOut, func(w io.Writer) error {
			return locktrace.WriteChromeTrace(w, events)
		}); err != nil {
			fail("trace: %v", err)
		}
		if err := validateTrace(*traceOut); err != nil {
			fail("trace self-check: %v", err)
		}
		fmt.Printf("trace: %d events (load in ui.perfetto.dev)\n", len(events))
	}

	if *useLockdep {
		fmt.Println()
		ld.WriteReport(os.Stdout)
	}
	if *lockdepDot != "" {
		if err := writeTo(*lockdepDot, func(w io.Writer) error {
			ld.WriteDOT(w)
			return nil
		}); err != nil {
			fail("lockdep dot: %v", err)
		}
	}
	if *lockdepJSON != "" {
		if err := writeTo(*lockdepJSON, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(ld.GraphJSON())
		}); err != nil {
			fail("lockdep json: %v", err)
		}
	}

	// The sampler keeps running through the hold window so the dashboard
	// and stream stay live while scrapers collect.
	if *serve != "" && *hold > 0 {
		fmt.Printf("lockmon: holding server for %v\n", *hold)
		time.Sleep(*hold)
	}

	if sc != nil {
		// Quiesce the live printer, close the in-progress window so
		// short runs still report, then summarize what the detector
		// flagged.
		sc.Stop()
		cancelScope()
		<-scopeDone
		sc.ForceSample()
		series := sc.Series(0)
		fmt.Printf("\nlockscope: %d windows sampled at %v, %d anomaly(ies) flagged\n",
			len(series.Samples), sc.Interval(), len(series.Anomalies))
		for _, a := range series.Anomalies {
			sites := ""
			if len(a.Sites) > 0 {
				sites = " at " + strings.Join(a.Sites, ", ")
			}
			fmt.Printf("lockscope:   window %d: %s spiked to %.3g (baseline %.3g, %.1f sigma)%s\n",
				a.Index, a.Metric, a.Value, a.Mean, a.Score, sites)
		}
	}
}

// printLive renders the nonzero counter deltas on one line.
func printLive(w io.Writer, d telemetry.Snapshot) {
	line := ""
	for _, k := range []string{
		"slow_path_entries", "inflations_contention", "queued_parks",
		"monitor_contended_entries", "monitor_handoffs", "cache_lookups", "hot_ops",
	} {
		if v := d.Counter(k); v > 0 {
			line += fmt.Sprintf(" %s=%d", k, v)
		}
	}
	if line == "" {
		line = " (idle)"
	}
	fmt.Fprintf(w, "lockmon:%s\n", line)
}

// writeTo writes via fn to path, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateJSON re-reads a written snapshot and checks it parses.
func validateJSON(path string) error {
	if path == "-" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s telemetry.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("%s is not a valid snapshot: %w", path, err)
	}
	return nil
}

// validateTrace re-reads a written trace and checks the required
// Chrome trace-event fields are present on every event.
func validateTrace(path string) error {
	if path == "-" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("%s is not a JSON array: %w", path, err)
	}
	for i, e := range events {
		for _, field := range []string{"ph", "ts", "tid", "pid"} {
			if _, ok := e[field]; !ok {
				return fmt.Errorf("%s: event %d missing %q", path, i, field)
			}
		}
	}
	return nil
}
