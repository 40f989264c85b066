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

func TestContentionPolicyQueued(t *testing.T) {
	r, err := RunContentionPolicy("queued", 3, 2, 5*time.Millisecond)
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

func TestContentionPolicyCompact(t *testing.T) {
	const rounds, contenders = 3, 2
	r, err := RunContentionPolicy("compact", rounds, contenders, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.Parks == 0 {
		t.Error("compact policy never parked under a long hold")
	}
	// Each contender spins out at most its budget before it parks, and
	// parks again without spinning if a wake does not get it the lock.
	if max := uint64(rounds * contenders * arch.SpinRounds); r.SpinRounds > max {
		t.Errorf("compact policy spun %d pauses, want at most %d", r.SpinRounds, max)
	}
}

func TestContentionPolicyComparison(t *testing.T) {
	rs, err := RunContentionPolicyComparison(2, 2, 3*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ContentionPolicies) {
		t.Fatalf("%d results, want %d", len(rs), len(ContentionPolicies))
	}
	spin, queued := rs[0], rs[1]
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
	if _, err := RunContentionPolicy("nope", 1, 1, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}
