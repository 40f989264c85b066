//go:build race

package monitor

// checkInvariants turns on Monitor.checkLocked, which checks state
// against the entry queue after every change made under the latch.
// Race builds are the stress builds, so the check runs wherever the
// race detector does.
const checkInvariants = true
