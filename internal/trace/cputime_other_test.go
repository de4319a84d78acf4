//go:build !unix

package trace

import "time"

// processCPU reports no CPU time where getrusage is unavailable, so
// cpu-ns/rec reads 0 there.
func processCPU() time.Duration { return 0 }
