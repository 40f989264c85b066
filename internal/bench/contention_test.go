package bench

import (
	"strings"
	"testing"
	"time"

	"thinlock/internal/arch"
)

func TestContentionPolicySpin(t *testing.T) {
	r, err := RunContentionPolicy("spin", 3, 2, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != "spin" {
		t.Errorf("policy = %q", r.Policy)
	}
	if r.SpinRounds == 0 {
		t.Error("spin policy recorded no spin pauses under a long hold")
	}
	if r.Parks != 0 {
		t.Error("spin policy parked")
	}
	if r.Elapsed < 15*time.Millisecond {
		t.Errorf("elapsed = %v, must cover 3 x 5ms holds", r.Elapsed)
	}
}

func TestContentionPolicyCompact(t *testing.T) {
	const rounds, contenders = 3, 2
	r, err := RunContentionPolicy("compact", rounds, contenders, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Parks == 0 {
		t.Error("compact policy never parked under a long hold")
	}
	// Each contender spins out its full budget in the first round and
	// parks; having parked, it spins only the busy rounds in every later
	// round. A wake that does not get it the lock parks it again
	// without spinning.
	max := uint64(contenders*arch.SpinRounds + (rounds-1)*contenders*arch.BusyRounds)
	if r.SpinRounds > max {
		t.Errorf("compact policy spun %d pauses, want at most %d", r.SpinRounds, max)
	}
}

func TestContentionPolicyComparison(t *testing.T) {
	const samples = 3
	rs, err := RunContentionPolicyComparison(2, 2, 3*time.Millisecond, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ContentionPolicies) {
		t.Fatalf("%d results, want %d", len(rs), len(ContentionPolicies))
	}
	spin, compact := rs[0], rs[1]
	// The headline claim: compact monitors replace most busy pauses
	// with parks.
	if spin.SpinRounds == 0 || compact.Parks == 0 {
		t.Errorf("comparison lacks signal: spin=%+v compact=%+v", spin, compact)
	}
	for _, r := range rs {
		if r.CPUMin > r.CPU || r.CPU > r.CPUMax {
			t.Errorf("%s: cpu %v outside its range %v–%v over %d samples", r.Policy, r.CPU, r.CPUMin, r.CPUMax, samples)
		}
	}
	for _, want := range []string{"cpu=", "spin-pauses="} {
		if !strings.Contains(spin.String(), want) {
			t.Errorf("String() = %q, want %q in it", spin.String(), want)
		}
	}
	if _, err := RunContentionPolicy("nope", 1, 1, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}
