//go:build !unix

package bench

import "time"

// processCPU reports 0 where getrusage is unavailable.
func processCPU() time.Duration { return 0 }
