//go:build !race

package monitor

// checkInvariants is off outside race builds (invariant_race.go), and
// Monitor.checkLocked compiles to nothing.
const checkInvariants = false
