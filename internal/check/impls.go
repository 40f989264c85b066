package check

import (
	"sort"

	"thinlock/internal/biased"
	"thinlock/internal/core"
	"thinlock/internal/hotlocks"
	"thinlock/internal/lockapi"
	"thinlock/internal/monitorcache"
	"thinlock/internal/reference"
)

// Implementations returns fresh-instance factories for every lock
// implementation the checker certifies: the paper's thin locks plus the
// compact (never inflates: contenders and waiters park on the lot) and
// narrow-count variants, the biased reservation
// locker (with and without rebiasing), both historical baselines, and
// the reference oracle itself (checked like any other implementation —
// an oracle nobody checks is just a second opinion).
func Implementations() map[string]func() lockapi.Locker {
	return map[string]func() lockapi.Locker{
		"ThinLock":         func() lockapi.Locker { return core.NewDefault() },
		"ThinLock-compact": func() lockapi.Locker { return core.New(core.Options{Compact: true}) },
		"ThinLock-2bit":    func() lockapi.Locker { return core.New(core.Options{CountBits: 2}) },
		"Biased":           func() lockapi.Locker { return biased.NewDefault() },
		"Biased-norebias":  func() lockapi.Locker { return biased.New(biased.Options{DisableRebias: true}) },
		"JDK111":           func() lockapi.Locker { return monitorcache.New(monitorcache.Options{Capacity: 4}) },
		"IBM112":           func() lockapi.Locker { return hotlocks.New(hotlocks.Options{Threshold: 2}) },
		"Reference":        func() lockapi.Locker { return reference.New() },
	}
}

// ImplementationNames returns the registry's keys in sorted order.
func ImplementationNames() []string {
	m := Implementations()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
