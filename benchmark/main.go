// Command thinlock-bench is the repository's benchmark. It generates four
// seeded workloads, runs each under the lock implementations of
// bench.StandardImpls, checks every run's checksum, and prints every
// metric by name with its unit. Build and run it from the repository
// root with benchmark/run.sh:
//
//	bash benchmark/run.sh --workload reacquire --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --seed 1
//
// With --workload it measures that workload in this process: --trace 0
// runs the untraced rounds and reports the end-to-end metrics of
// BENCHMARK.json; --trace 1 splits --seconds between the untraced rounds
// and the traced ones and reports the per-layer metrics. Without
// --workload it runs every workload with --trace 1 in a child process of
// its own, so that one workload's heap and scheduler state cannot leak
// into the next, and reports both families.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every sample is written to
// benchmark/results/runs/<run>.json, and a traced run's raw spans to
// benchmark/results/trace_<workload>.json. The exit code is 0 when every
// sample was correct, 1 when one was not, 2 on a usage or set-up error
// and 3 when a sample hung.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"thinlock/internal/bench"
)

const resultsDir = "benchmark/results"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, bench.StandardImpls()))
}

func run(args []string, stdout io.Writer, fs []bench.Factory) int {
	fl := flag.NewFlagSet("thinlock-bench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to measure in this process (default: every workload, each in a child process)")
	seed := fl.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Int("seconds", 25, "how long one run measures")
	trace := fl.Int("trace", 0, "0 reports the end-to-end metrics, 1 also runs the traced phase and reports the per-layer metrics")
	out := fl.String("out", "", "results file (default "+resultsDir+"/runs/<run>.json)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: thinlock-bench [--workload NAME] [--seed N] [--seconds S>=1] [--trace 0|1] [--out FILE]")
		return 2
	}
	if *name == "" {
		return runAll(stdout, *seed, *seconds, *out)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg := config{workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, scale: 1}
	res, err := measure(cfg, fs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	path := *out
	if path == "" {
		path = filepath.Join(resultsDir, "runs", res.Run+".json")
	}
	return report(res, stdout, path, filepath.Join(resultsDir, "trace_"+w.name+".json"))
}

// report writes res to path and its raw spans to tracePath, prints it,
// and returns the exit code.
func report(res *results, stdout io.Writer, path, tracePath string) int {
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if res.Trace {
		if err := writeJSON(tracePath, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	res.print(stdout)
	fmt.Fprintf(stdout, "results: %s\n", path)
	printLine(stdout, res.Correct, res.Attempted, res.Failed, res.reported())
	if !res.Correct {
		return 1
	}
	return 0
}

// results is everything one single-workload run measured.
type results struct {
	Run       string         `json:"run"`
	Workload  string         `json:"workload"`
	Threads   int            `json:"threads"`
	Seed      uint64         `json:"seed"`
	Trace     bool           `json:"trace"`
	Seconds   float64        `json:"seconds"`
	Machine   machine        `json:"machine"`
	Noisy     bool           `json:"noisy"`
	Ops       uint64         `json:"ops_per_sample"`
	Checksum  string         `json:"checksum"`
	Rounds    int            `json:"untraced_rounds"`
	SetupS    []float64      `json:"setup_s"`
	CalibMs   []float64      `json:"calib_ms"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  []metric       `json:"end_to_end"`
	PerLayer  []metric       `json:"per_layer,omitempty"`
	Ledger    []ledgerRow    `json:"ledger,omitempty"`
	Samples   []sampleRecord `json:"samples"`

	spans []span
}

// reported returns the metrics the run's --trace value reports.
func (res *results) reported() []metric {
	if res.Trace {
		return res.PerLayer
	}
	return res.EndToEnd
}

// machine describes where a run was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	CPU        string `json:"cpu"`
	Tracing    cost   `json:"tracing_cost"`
}

// measure runs one workload: the untraced phase, and with cfg.trace the
// traced phase too.
func measure(cfg config, fs []bench.Factory) (*results, error) {
	impls, err := lookupImpls(fs, measuredImpls, referenceImpls)
	if err != nil {
		return nil, err
	}
	r := newRunner(cfg, impls)
	if err := r.run(); err != nil {
		return nil, err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	res := &results{
		Run:      fmt.Sprintf("%s_seed%d_trace%d_%s", cfg.workload.name, cfg.seed, trace, time.Now().UTC().Format("20060102T150405.000Z")),
		Workload: cfg.workload.name,
		Threads:  cfg.workload.threads,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Seconds:  cfg.seconds.Seconds(),
		Machine: machine{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitRev:     gitRev(),
			CPU:        cpuModel(),
		},
		Noisy:    r.noisy(),
		Ops:      r.ops,
		Checksum: fmt.Sprintf("%016x", r.want),
		Rounds:   len(r.calibMs),
		SetupS:   r.setupS,
		CalibMs:  r.calibMs,
		Samples:  r.samples,
	}
	res.Attempted, res.Failed = r.tally()
	res.Correct = res.Failed == 0
	res.EndToEnd = r.endToEnd()
	if cfg.trace {
		res.Machine.Tracing = tracerCost()
		res.PerLayer = r.perLayer(res.Machine.Tracing)
		res.Ledger = r.ledger(res.Machine.Tracing)
		for _, impl := range measuredImpls {
			res.spans = append(res.spans, r.tracers[impl].rawSpans()...)
		}
	}
	return res, nil
}

func (res *results) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s (%d thread(s)) seed %d trace %v: %d ops/sample, %d untraced rounds, checksum %s\n",
		res.Workload, res.Threads, res.Seed, res.Trace, res.Ops, res.Rounds, res.Checksum)
	m := res.Machine
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s, rev %s, noisy %v\n",
		m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion, m.GitRev, res.Noisy)
	if res.Trace {
		fmt.Fprintf(w, "tracing costs %.1f ns per Locker call (%.1f inside its interval) and %.1f ns per span (%.1f inside)\n",
			m.Tracing.Call, m.Tracing.CallIn, m.Tracing.Span, m.Tracing.SpanIn)
	}
	for _, s := range res.Samples {
		if s.Error != "" {
			fmt.Fprintf(w, "FAIL %s %s round %d: %s\n", s.Phase, s.Impl, s.Round, s.Error)
		}
	}
	printMetrics(w, "", res.EndToEnd)
	printMetrics(w, "", res.PerLayer)
	for _, row := range res.Ledger {
		fmt.Fprintln(w, row)
	}
}

// printMetrics prints one metric a line as name, value and unit, each
// name after prefix.
func printMetrics(w io.Writer, prefix string, ms []metric) {
	for _, mt := range ms {
		if mt.Absent != "" {
			fmt.Fprintf(w, "%-54s %14s %-7s absent: %s\n", prefix+mt.Name, "-", mt.Unit, mt.Absent)
			continue
		}
		fmt.Fprintf(w, "%-54s %14.6g %s\n", prefix+mt.Name, mt.Value, mt.Unit)
	}
}

// printLine prints the one-line JSON summary that ends standard output.
func printLine(w io.Writer, correct bool, attempted, failed int, ms []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // a struct of numbers, strings and bools always marshals
	fmt.Fprintln(w, string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll measures every workload with --trace 1, each in a child
// process, and writes the children's results into one file. A traced
// child reports the end-to-end metrics of its untraced rounds too.
func runAll(stdout io.Writer, seed uint64, seconds int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	run := fmt.Sprintf("all_seed%d_%s", seed, time.Now().UTC().Format("20060102T150405.000Z"))
	if out == "" {
		out = filepath.Join(resultsDir, "runs", run+".json")
	}
	var children []*results
	code := 0
	for _, w := range workloads {
		part := out + "." + w.name
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "1", "--out", part)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		code = max(code, cmd.ProcessState.ExitCode())
		b, err := os.ReadFile(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s left no results: %v\n", w.name, err)
			return max(code, 2)
		}
		_ = os.Remove(part) // a part file left behind is only clutter
		var res results
		if err := json.Unmarshal(b, &res); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", part, err)
			return 2
		}
		children = append(children, &res)
	}
	doc := struct {
		Run      string     `json:"run"`
		Seed     uint64     `json:"seed"`
		Seconds  int        `json:"seconds"`
		Children []*results `json:"children"`
	}{run, seed, seconds, children}
	if err := writeJSON(out, doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	correct, attempted, failed := true, 0, 0
	var all []metric
	fmt.Fprintln(stdout, "\nsummary")
	for _, c := range children {
		correct = correct && c.Correct
		attempted += c.Attempted
		failed += c.Failed
		printMetrics(stdout, c.Workload+":", c.EndToEnd)
		for _, ms := range [][]metric{c.EndToEnd, c.PerLayer} {
			for _, m := range ms {
				m.Name = c.Workload + ":" + m.Name
				all = append(all, m)
			}
		}
	}
	fmt.Fprintf(stdout, "results: %s\n", out)
	printLine(stdout, correct, attempted, failed, all)
	return code
}

// gitRev returns the checked-out commit, read from .git without running
// git, or "unknown" outside a git checkout.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// cpuModel returns the processor's model name from /proc/cpuinfo, or
// "unknown" where that file has none.
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
