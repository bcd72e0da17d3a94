package mm

import "desiccant/internal/sim"

// The GC cost model converts collection work into CPU time.
// Mainstream collectors are tracing-based, so (as §4.5.2 observes)
// their cost is dominated by the live bytes they trace and copy —
// which is what makes Desiccant's per-instance reclamation-time
// estimate stable. The constants approximate a single-threaded
// collector on a modern core: roughly 2 GiB/s of tracing and copying
// bandwidth.
const (
	// gcFixed is the pause setup/teardown cost per cycle.
	gcFixed = 150 * sim.Microsecond
	// gcTracePerMB is the cost of tracing one MiB of live data.
	gcTracePerMB = 450 * sim.Microsecond
	// gcCopyPerMB is the additional cost of moving one MiB (copying
	// young collections, compacting full collections).
	gcCopyPerMB = 550 * sim.Microsecond
	// gcSweepPerMB is the cost of sweeping one MiB of dead data
	// (non-moving collectors).
	gcSweepPerMB = 80 * sim.Microsecond
)

const mb = 1 << 20

// GCCycle computes the CPU cost of one collection that traced, copied
// and swept the given byte volumes.
func GCCycle(traced, copied, swept int64) sim.Duration {
	cost := gcFixed
	cost += sim.Duration(float64(gcTracePerMB) * float64(traced) / mb)
	cost += sim.Duration(float64(gcCopyPerMB) * float64(copied) / mb)
	cost += sim.Duration(float64(gcSweepPerMB) * float64(swept) / mb)
	return cost
}
