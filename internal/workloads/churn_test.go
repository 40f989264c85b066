package workloads

import (
	"testing"

	"thinlock/internal/core"
	"thinlock/internal/jcl"
	"thinlock/internal/object"
	"thinlock/internal/threading"
)

// runChurnOn runs the churn workload at the given size on l and returns
// its checksum.
func runChurnOn(t *testing.T, l *core.ThinLocks, size int) uint64 {
	t.Helper()
	w, ok := ByName("churn")
	if !ok {
		t.Fatal("churn workload not registered")
	}
	ctx := jcl.NewContext(l, object.NewHeap())
	reg := threading.NewRegistry()
	th, err := reg.Attach("w")
	if err != nil {
		t.Fatal(err)
	}
	return w.Run(ctx, th, size)
}

// TestChurnBoundsMonitorTable is the workload-level memory bound of
// compact monitors: churning through thousands of barrier objects, each
// of which a wait would inflate under the paper's protocol, allocates
// no monitor at all and leaves no thread's node filed on the parking
// lot. Not parallel: the lot is process-wide, so the lot-wide count
// must not see other tests' parked threads.
func TestChurnBoundsMonitorTable(t *testing.T) {
	size := 40
	if testing.Short() {
		size = 8
	}
	l := core.New(core.Options{Compact: true})
	if sum := runChurnOn(t, l, size); sum == 0 {
		t.Fatal("checksum is zero; workload may be degenerate")
	}
	s := l.Stats()
	if s.FatLocks != 0 || s.Inflations() != 0 || s.TableSpan != 0 {
		t.Fatalf("compact churn allocated monitors: %+v", s)
	}
	if n := threading.Parked(nil); n != 0 {
		t.Fatalf("%d nodes still filed on the parking lot after the run", n)
	}
}

// TestChurnGrowsTableWithoutRecycling pins the contrast the churn
// workload exists to expose: under the paper's protocol the table
// footprint equals cumulative inflations.
func TestChurnGrowsTableWithoutRecycling(t *testing.T) {
	t.Parallel()
	l := core.NewDefault()
	runChurnOn(t, l, 4)
	s := l.Stats()
	if s.Inflations() == 0 {
		t.Fatal("churn inflated nothing")
	}
	if uint64(s.TableSpan) != s.Inflations() {
		t.Fatalf("TableSpan = %d after %d inflations; the table must keep every monitor",
			s.TableSpan, s.Inflations())
	}
}
