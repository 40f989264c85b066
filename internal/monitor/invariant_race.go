//go:build race

package monitor

// checkInvariants turns on Monitor.checkLocked, which checks state
// against the monitor's entry parkers on the lot, with its bucket
// locked, at each of the monitor's steps there. Race builds are the
// stress builds, so the check runs wherever the race detector does.
const checkInvariants = true
