package bench

import (
	"strings"
	"testing"
	"time"
)

func TestContentionPolicySpin(t *testing.T) {
	r, err := RunContentionPolicy(false, 3, 2, 5*time.Millisecond)
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

func TestContentionPolicyQueued(t *testing.T) {
	r, err := RunContentionPolicy(true, 3, 2, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != "queued" {
		t.Errorf("policy = %q", r.Policy)
	}
	if r.Parks == 0 {
		t.Error("queued policy never parked under a long hold")
	}
	if r.SpinRounds != 0 {
		t.Error("queued policy spun")
	}
}

func TestContentionPolicyComparison(t *testing.T) {
	spin, queued, err := RunContentionPolicyComparison(2, 2, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: queued waiting replaces busy pauses with
	// precise parks.
	if spin.SpinRounds == 0 || queued.Parks == 0 {
		t.Errorf("comparison lacks signal: spin=%+v queued=%+v", spin, queued)
	}
	for _, want := range []string{"cpu=", "spin-pauses="} {
		if !strings.Contains(spin.String(), want) {
			t.Errorf("String() = %q, want %q in it", spin.String(), want)
		}
	}
}
