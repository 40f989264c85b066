package lockscope_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"thinlock/internal/lockscope"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current encoder output")

// goldenSeries is a fixed fixture covering the encoder edge cases: a
// busy window with sites and an anomaly, an idle all-zero window, and a
// site label containing a comma (CSV quoting).
func goldenSeries() lockscope.Series {
	return lockscope.Series{
		IntervalNs: 250e6,
		Capacity:   256,
		Samples: []lockscope.Sample{
			{
				Index: 41, AtNs: 10_250_000_000, WindowNs: 250_000_000,
				SlowPerSec: 400, CASFailPerSec: 100, CASFailRatio: 0.2,
				Inflations:       lockscope.InflationDeltas{Contention: 2, Wait: 1},
				InflationsPerSec: 12, ParksPerSec: 40,
				AcquireP50Ns: 812, AcquireP99Ns: 14_890,
				ParkP50Ns: 1_048_000, ParkP99Ns: 9_400_000,
				HoldP50Ns: 2_100, HoldP99Ns: 88_000,
				Sites: []lockscope.SiteSample{
					{Label: "bank.transfer (bank.go:71)", Kind: "go", SlowEntries: 60, CASFailures: 15, ParkNs: 5_000_000, DelayNs: 9_000_000},
					{Label: "weird,label (gen.go:3)", Kind: "vm", SlowEntries: 40, CASFailures: 10, ParkNs: 1_000_000, DelayNs: 2_000_000},
				},
				Anomalies: []lockscope.Anomaly{{
					Index: 41, AtNs: 10_250_000_000,
					Metric: lockscope.MetricCASFailRatio,
					Value:  0.2, Mean: 0.02, Sigma: 0.0025, Score: 72,
					Sites: []string{"bank.transfer (bank.go:71)"},
				}},
			},
			{Index: 42, AtNs: 10_500_000_000, WindowNs: 250_000_000},
		},
		Anomalies: []lockscope.Anomaly{{
			Index: 41, AtNs: 10_250_000_000,
			Metric: lockscope.MetricCASFailRatio,
			Value:  0.2, Mean: 0.02, Sigma: 0.0025, Score: 72,
			Sites: []string{"bank.transfer (bank.go:71)"},
		}},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := goldenSeries().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()
	checkGolden(t, "series.golden.json", first)
	// Byte-identical across runs.
	var again bytes.Buffer
	if err := goldenSeries().WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Error("JSON encoding not deterministic across runs")
	}
}

func TestWriteCSVGolden(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := goldenSeries().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()
	checkGolden(t, "series.golden.csv", first)
	var again bytes.Buffer
	if err := goldenSeries().WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Error("CSV encoding not deterministic across runs")
	}
}
