package check

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Seeded-mutant kill tests run their mutant half in a child process. A
// mutant breaks mutual exclusion on purpose, so under the race detector
// it produces real data-race reports, and a race report fails every test
// running in the process that made it. The child re-executes the test
// binary with -test.run set to the one test and mutantChildEnv naming it.
// It runs only the mutant half and prints its verdict as one JSON line.
// The parent keeps the clean half under the detector and requires that
// line to report the divergence. A race report in the child is logged;
// it never stands in for the checker's verdict.

// mutantChildEnv names, in a child process, the kill test whose mutant
// half the child runs.
const mutantChildEnv = "THINLOCK_CHECK_MUTANT"

// verdictPrefix starts the child's verdict line.
const verdictPrefix = "mutant-verdict: "

// mutantVerdict is what a mutant half reports: whether the checker
// caught the mutant, at which schedule seed, and the failures or
// minimized program to log.
type mutantVerdict struct {
	Caught bool   `json:"caught"`
	Seed   int64  `json:"seed"`
	Detail string `json:"detail"`
}

// killTest runs a seeded-mutant kill test: clean, the unmutated half, in
// this process, and mutant in a child process whose verdict must say the
// checker caught the mutant called name.
func killTest(t *testing.T, name string, clean func(), mutant func() mutantVerdict) {
	t.Helper()
	if os.Getenv(mutantChildEnv) == t.Name() {
		line, err := json.Marshal(mutant())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%s%s\n", verdictPrefix, line)
		return
	}
	clean()

	ctx := context.Background()
	if d, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	args := []string{"-test.run=^" + t.Name() + "$", "-test.count=1"}
	if testing.Short() {
		args = append(args, "-test.short")
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), mutantChildEnv+"="+t.Name())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()

	var v *mutantVerdict
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), verdictPrefix); ok {
			v = new(mutantVerdict)
			if err := json.Unmarshal([]byte(rest), v); err != nil {
				t.Fatalf("child verdict %q: %v", rest, err)
			}
		}
	}
	if runErr != nil || strings.Contains(stderr.String(), "DATA RACE") {
		// Expected under -race: the mutant races by design.
		t.Logf("mutant child exited with %v; its stderr:\n%s", runErr, stderr.String())
	}
	if v == nil {
		t.Fatalf("mutant child printed no verdict (%v); stdout:\n%s\nstderr:\n%s",
			runErr, stdout.String(), stderr.String())
	}
	if !v.Caught {
		t.Fatalf("checker never reported the seeded %s mutation: %s", name, v.Detail)
	}
	t.Logf("%s caught at seed %d: %s", name, v.Seed, v.Detail)
}
