package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/core"
)

// idleResult is the §4.2 future-work policy next to the dynamic
// threshold alone: two Desiccant replays at one scale, the second also
// activating reclamation whenever 4 cores are idle.
type idleResult struct {
	points []Fig9Point
}

// runIdle replays both Desiccant cells at o's first scale.
func runIdle(o Fig9Options) (*idleResult, error) {
	scale := o.Scales[0]
	as, err := o.assignments(scale)
	if err != nil {
		return nil, err
	}
	idle := core.DefaultConfig()
	idle.ActivateOnIdleCPU = 4
	points, err := runIndexed(o.Parallel, 2, func(i int) (Fig9Point, error) {
		o := o
		if i == 1 {
			o.ManagerConfig = &idle
		}
		return runTraceCell(SetupDesiccant, scale, o, as)
	})
	if err != nil {
		return nil, err
	}
	return &idleResult{points}, nil
}

// WriteCSV renders one row per policy.
func (r *idleResult) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "policy,cold_boot_rate,reclaim_overhead,evictions")
	for i, policy := range []string{"threshold-only", "idle-cpu"} {
		p := r.points[i]
		fmt.Fprintf(w, "%s,%.4f,%.4f,%d\n", policy, p.ColdBootRate, p.ReclaimOverhead, p.Evictions)
	}
}
