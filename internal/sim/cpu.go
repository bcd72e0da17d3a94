package sim

import (
	"fmt"
	"math"
)

// WorkDuration converts an amount of CPU work (expressed as the time
// it would take on one full core) into wall-clock time at the given
// share. A task needing 10ms of core time at share 0.25 takes 40ms.
// It panics when the result does not fit a Duration rather than
// letting the conversion wrap into the past.
func WorkDuration(coreTime Duration, share float64) Duration {
	if share <= 0 {
		panic("sim: non-positive CPU share")
	}
	wall := float64(coreTime)/share + 0.5
	if wall >= math.MaxInt64 || wall <= math.MinInt64 {
		panic(fmt.Sprintf("sim: WorkDuration(%v, %g) overflows a Duration", coreTime, share))
	}
	return Duration(wall)
}
