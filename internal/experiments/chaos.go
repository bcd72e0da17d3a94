package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/chaos"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/invariant"
	"desiccant/internal/sim"
)

// ChaosOptions parameterizes the robustness sweep: every manager mode
// crossed with every fault intensity, each cell a fully seeded
// fault-injected scenario with the cross-layer invariant checker
// attached.
type ChaosOptions struct {
	// Seed drives every cell's workload and fault plan.
	Seed uint64
	// Window is the simulated duration per cell.
	Window sim.Duration
	// Requests is the background arrival count per cell.
	Requests int
	// Intensities is the fault-intensity axis (0 is the fault-free
	// control row).
	Intensities []float64
	// Parallel is the sweep worker count; output is byte-identical at
	// any setting.
	Parallel int
}

// ChaosCell is one (mode, intensity) result.
type ChaosCell struct {
	Mode       chaos.ManagerMode
	Intensity  float64
	Result     *chaos.Result
	Violations []string
}

// ChaosResult is the full sweep.
type ChaosResult struct {
	Cells []ChaosCell
}

// chaosModes is the mode axis, in output order.
var chaosModes = []chaos.ManagerMode{chaos.ManagerOff, chaos.ManagerReclaim, chaos.ManagerSwap}

// RunChaos executes the sweep. Each cell is an independent simulation
// (own engine, machine, RNGs), so cells fan out across workers with
// deterministic collection; CSV from a parallel run is byte-identical
// to the serial run at the same seed.
func RunChaos(o ChaosOptions) (*ChaosResult, error) {
	n := len(chaosModes) * len(o.Intensities)
	cells, err := runIndexed(o.Parallel, n, func(i int) (ChaosCell, error) {
		mode := chaosModes[i/len(o.Intensities)]
		intensity := o.Intensities[i%len(o.Intensities)]
		so := chaos.DefaultScenarioOptions(o.Seed)
		so.Mode = mode
		so.Window = o.Window
		so.Requests = o.Requests
		so.Chaos.Intensity = intensity
		var chk *invariant.Checker
		so.Observe = func(p *faas.Platform, mgr *core.Manager) {
			chk = invariant.Attach(p, mgr)
		}
		res, err := chaos.RunScenario(so)
		if err != nil {
			return ChaosCell{}, err
		}
		return ChaosCell{Mode: mode, Intensity: intensity, Result: res, Violations: chk.Final()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Cells: cells}, nil
}

// WriteCSV renders the sweep: one row per cell, plus any invariant
// violations as trailing comment lines (a healthy sweep has none).
func (r *ChaosResult) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "mode,intensity,requests,completions,oom_kills,requeues,skipped_thaws,failed_reclaims,partial_reclaims,retries,swap_fallbacks,released_mb,swapped_mb,faults_injected,events,violations")
	for _, c := range r.Cells {
		p, m, f := &c.Result.Platform, &c.Result.Manager, &c.Result.Faults
		faults := f.ThawRaces + f.ReclaimFails + f.PartialReclaims + f.OOMKills + f.SwapSqueezes + f.Bursts
		fmt.Fprintf(w, "%s,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.1f,%d,%d,%d\n",
			c.Mode, c.Intensity, p.Requests, p.Completions, p.OOMKills, p.Requeues,
			m.SkippedThaws, m.FailedReclaims, m.PartialReclaims, m.Retries, m.SwapFallbacks,
			float64(m.ReleasedBytes)/(1<<20), float64(m.SwappedBytes)/(1<<20),
			faults, len(c.Result.Events), len(c.Violations))
	}
	for _, c := range r.Cells {
		for _, v := range c.Violations {
			fmt.Fprintf(w, "# VIOLATION %s i=%.2f: %s\n", c.Mode, c.Intensity, v)
		}
	}
}

// FirstViolation returns one violation (with its cell) for error
// reporting, or "" when the sweep is clean.
func (r *ChaosResult) FirstViolation() string {
	for _, c := range r.Cells {
		if len(c.Violations) > 0 {
			return fmt.Sprintf("%s i=%.2f: %s", c.Mode, c.Intensity, c.Violations[0])
		}
	}
	return ""
}
