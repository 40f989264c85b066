package main

import (
	"os"
	"strings"
	"testing"

	"thinlock/internal/check"
)

// TestImplFlagUsageListsEveryImplementation pins the -impl help text to
// the live registry: adding an implementation to
// check.Implementations() must surface it in `lockcheck -help` with no
// manual edit here.
func TestImplFlagUsageListsEveryImplementation(t *testing.T) {
	usage := implFlagUsage()
	for _, name := range check.ImplementationNames() {
		if !strings.Contains(usage, name) {
			t.Errorf("-impl usage omits implementation %q: %s", name, usage)
		}
	}
	if !strings.Contains(usage, `"all"`) {
		t.Errorf("-impl usage must document the \"all\" shorthand: %s", usage)
	}
}

// TestReadmeListsEveryImplementation keeps the README's
// correctness-harness prose from drifting: every registered
// implementation name must appear somewhere in README.md.
func TestReadmeListsEveryImplementation(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, name := range check.ImplementationNames() {
		if !strings.Contains(text, name) {
			t.Errorf("README.md does not mention implementation %q; update the correctness-harness section", name)
		}
	}
}

// TestSelectImpls covers the -impl/-mutate resolution paths, including
// the two biased mutations.
func TestSelectImpls(t *testing.T) {
	all, err := selectImpls("all", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(check.ImplementationNames()) {
		t.Errorf("selectImpls(all) returned %d impls, registry has %d",
			len(all), len(check.ImplementationNames()))
	}

	two, err := selectImpls("ThinLock, Biased", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Errorf("selectImpls subset returned %d impls, want 2", len(two))
	}

	if _, err := selectImpls("Bogus", ""); err == nil {
		t.Error("unknown implementation accepted")
	}

	for _, mutate := range []string{"overflow", "dropwake", "biasdepth", "biasdekker", "lot-validate", "lot-dropwake"} {
		m, err := selectImpls("all", mutate)
		if err != nil {
			t.Fatalf("-mutate %s: %v", mutate, err)
		}
		if len(m) != 1 {
			t.Fatalf("-mutate %s returned %d impls, want 1", mutate, len(m))
		}
		for name, mk := range m {
			if mk() == nil {
				t.Errorf("-mutate %s factory %s built nil locker", mutate, name)
			}
		}
	}

	if _, err := selectImpls("all", "bogus"); err == nil {
		t.Error("unknown mutation accepted")
	}
}
