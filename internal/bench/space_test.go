package bench

import (
	"fmt"
	"strings"
	"testing"

	"thinlock/internal/workloads"
)

func TestSpaceUsageShape(t *testing.T) {
	// crema churns many short-lived synchronized containers — the case
	// the paper's space argument targets.
	w, ok := workloads.ByName("crema")
	if !ok {
		t.Fatal("crema missing")
	}
	rows, err := SpaceUsage(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byImpl := make(map[string]SpaceRow)
	for _, r := range rows {
		byImpl[r.Impl] = r
	}

	thin := byImpl["ThinLock"]
	jdk := byImpl["JDK111"]
	ibm := byImpl["IBM112"]

	// Single-threaded: thin locks never inflate, so zero dedicated
	// storage — the paper's headline space result.
	if thin.Structures != 0 || thin.Bytes != 0 {
		t.Errorf("ThinLock used %d structures / %d bytes, want 0/0", thin.Structures, thin.Bytes)
	}
	// The baselines must hold real monitor populations.
	if jdk.Bytes == 0 || ibm.Bytes == 0 {
		t.Errorf("baseline footprints are zero: jdk=%d ibm=%d", jdk.Bytes, ibm.Bytes)
	}
	if thin.Bytes >= jdk.Bytes || thin.Bytes >= ibm.Bytes {
		t.Errorf("thin locks do not save space: thin=%d jdk=%d ibm=%d",
			thin.Bytes, jdk.Bytes, ibm.Bytes)
	}
	// All three saw the same workload.
	if thin.SyncedObjects == 0 || thin.SyncedObjects != jdk.SyncedObjects ||
		jdk.SyncedObjects != ibm.SyncedObjects {
		t.Errorf("synced-object counts diverge: %d/%d/%d",
			thin.SyncedObjects, jdk.SyncedObjects, ibm.SyncedObjects)
	}
}

func TestFormatSpace(t *testing.T) {
	w, _ := workloads.ByName("jnet")
	rows, err := SpaceUsage(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatSpace(map[string][]SpaceRow{"jnet": rows}, []string{"jnet"})
	sizes := fmt.Sprintf("object=%dB and monitor=%dB measured", ObjectBytes, MonitorBytes)
	for _, want := range []string{sizes, "jnet", "ThinLock", "JDK111", "IBM112", "bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFormatSpaceMarksConcurrentRows: a multi-threaded workload's rows
// carry the scheduling mark and the table its footnote; a
// single-threaded workload's rows do not, and a table of those alone
// has no footnote.
func TestFormatSpaceMarksConcurrentRows(t *testing.T) {
	rows := []SpaceRow{{Impl: "ThinLock", SyncedObjects: 10, Structures: 4, Bytes: 4 * MonitorBytes}}
	results := map[string][]SpaceRow{"dining": rows, "jnet": rows}
	lines := strings.Split(FormatSpace(results, []string{"dining", "jnet"}), "\n")
	var dining, jnet, footnote string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "dining"):
			dining = l
		case strings.HasPrefix(l, "jnet"):
			jnet = l
		case strings.HasPrefix(l, "* "):
			footnote = l
		}
	}
	if !strings.HasSuffix(dining, " *") {
		t.Errorf("dining's row is not marked: %q", dining)
	}
	if strings.HasSuffix(jnet, "*") {
		t.Errorf("jnet's row is marked: %q", jnet)
	}
	if !strings.Contains(footnote, "scheduling") {
		t.Errorf("no scheduling footnote in:\n%s", strings.Join(lines, "\n"))
	}
	if out := FormatSpace(results, []string{"jnet"}); strings.Contains(out, "*") {
		t.Errorf("a single-threaded table has a mark or footnote:\n%s", out)
	}
}
