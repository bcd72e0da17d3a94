package cluster

import (
	"fmt"
	"io"

	"desiccant/internal/obs"
)

// CapacityPoint is one cell of the COCOA-style capacity grid: a fleet
// size × per-node RAM provision, with the replay's measurement.
type CapacityPoint struct {
	Nodes      int
	CacheBytes int64
	Res        *Result
}

// WriteCapacityCSV renders the capacity curve: for each (nodes × RAM)
// provision, whether the replay met the cold-start SLO and at what
// tail latency — the planning question "how little hardware still
// holds the SLO" read straight off the grid.
func WriteCapacityCSV(w io.Writer, pts []CapacityPoint, sloColdBoot float64) {
	fmt.Fprintf(w, "# capacity curve: cold-boot SLO %.3f\n", sloColdBoot)
	fmt.Fprintln(w, "nodes,cache_mb,policy,mode,completions,cold_boot_rate,p99_ms,headroom_x,meets_slo")
	for _, pt := range pts {
		r := pt.Res
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%.4f,%s,%.2f,%v\n",
			pt.Nodes, pt.CacheBytes>>20, r.Policy, r.Mode,
			r.Completions, r.ColdBootRate(),
			obs.FormatValue(r.Fleet.Quantile(0.99)),
			r.HeadroomX(), r.ColdBootRate() <= sloColdBoot)
	}
}
