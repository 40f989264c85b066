package bench

import (
	"thinlock/internal/biased"
	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/lockapi"
	"thinlock/internal/monitorcache"
)

// Factory names and constructs one lock implementation configuration.
type Factory struct {
	// Name is the label used in reports ("ThinLock", "JDK111", ...).
	Name string
	// New constructs a fresh instance; benchmarks never share state
	// between runs.
	New func() lockapi.Locker
}

// StandardImpls returns the implementations compared throughout the
// paper's evaluation (Figures 4 and 5) — ThinLock, IBM112 and JDK111 —
// plus the biased-reservation and compact-monitor follow-on designs.
// The extensions are appended after the paper's trio: reports and tests
// index the trio by position.
func StandardImpls() []Factory {
	return []Factory{
		{Name: "ThinLock", New: func() lockapi.Locker { return core.NewDefault() }},
		{Name: "IBM112", New: func() lockapi.Locker { return hotlocks.NewDefault() }},
		{Name: "JDK111", New: func() lockapi.Locker { return monitorcache.NewDefault() }},
		{Name: "Biased", New: func() lockapi.Locker { return biased.NewDefault() }},
		{Name: "ThinLock-compact", New: func() lockapi.Locker { return core.New(core.Options{Compact: true}) }},
	}
}

// VariantImpls returns the Figure 6 implementation-variant ladder, from
// the NOP "speed of light" to the UnlkC&S pessimization, with the IBM112
// reference the paper plots alongside them.
func VariantImpls() []Factory {
	mk := func(v core.Variant) func() lockapi.Locker {
		return func() lockapi.Locker { return core.New(core.Options{Variant: v}) }
	}
	return []Factory{
		{Name: "NOP", New: mk(core.VariantNOP)},
		{Name: "Inline", New: mk(core.VariantInline)},
		{Name: "FnCall", New: mk(core.VariantFnCall)},
		{Name: "MP Sync", New: mk(core.VariantMPSync)},
		{Name: "ThinLock", New: mk(core.VariantStandard)},
		{Name: "KernelC&S", New: mk(core.VariantKernelCAS)},
		{Name: "UnlkC&S", New: mk(core.VariantUnlockCAS)},
		{Name: "IBM112", New: func() lockapi.Locker { return hotlocks.NewDefault() }},
		{Name: "Biased", New: func() lockapi.Locker { return biased.NewDefault() }},
		{Name: "Biased-off", New: func() lockapi.Locker { return biased.New(biased.Options{DisableBias: true}) }},
	}
}

// Names returns the factory names in order; CLI help text derives its
// implementation lists from this so it cannot drift from Lookup.
func Names(fs []Factory) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// Lookup returns the named factory from fs, or false.
func Lookup(fs []Factory, name string) (Factory, bool) {
	for _, f := range fs {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}
