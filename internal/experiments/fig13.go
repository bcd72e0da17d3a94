package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Fig13Row is one function's post-reclamation overhead measurement.
type Fig13Row struct {
	Function string
	// Baseline is the mean warm latency before reclamation (last 10
	// of 130 iterations, per §5.6).
	Baseline sim.Duration
	// AfterDesiccant is the mean latency of the 10 iterations after a
	// Desiccant reclamation.
	AfterDesiccant sim.Duration
	// AfterSwap is the mean latency after the swapping baseline
	// pushed out the same volume.
	AfterSwap sim.Duration
	// AfterAggressive is the mean latency after an aggressive
	// (weak-clearing) reclamation — the §4.7 ablation.
	AfterAggressive sim.Duration
}

// Overhead is AfterDesiccant/Baseline - 1 (the paper: 8.3% average).
func (r Fig13Row) Overhead() float64 {
	return float64(r.AfterDesiccant)/float64(r.Baseline) - 1
}

// SwapSlowdown is AfterSwap/AfterDesiccant (the paper: 2.37× for sort).
func (r Fig13Row) SwapSlowdown() float64 {
	return float64(r.AfterSwap) / float64(r.AfterDesiccant)
}

// AggressiveSlowdown is AfterAggressive/AfterDesiccant (the paper:
// 2.14× for data-analysis, 1.74× for unionfind; ~1 elsewhere).
func (r Fig13Row) AggressiveSlowdown() float64 {
	return float64(r.AfterAggressive) / float64(r.AfterDesiccant)
}

// Fig13Result reproduces Figure 13 plus the §5.6 swap and
// weak-reference comparisons.
type Fig13Result struct {
	Rows []Fig13Row
}

// MeanOverhead averages the per-function overhead.
func (r *Fig13Result) MeanOverhead() float64 {
	var sum float64
	for _, row := range r.Rows {
		sum += row.Overhead()
	}
	return sum / float64(len(r.Rows))
}

// Fig13Options parameterizes the §5.6 methodology.
type Fig13Options struct {
	Single SingleOptions
	// WarmIterations precede the reclamation (130 in the paper, so
	// JIT warmup noise settles).
	WarmIterations int
	// MeasureIterations follow the reclamation (10 in the paper).
	MeasureIterations int
}

// RunFig13 measures every function. Functions fan out across the pool;
// the three variants of one function stay serial because the swap
// variant replays the volume the Desiccant variant released.
func RunFig13(opts Fig13Options) (*Fig13Result, error) {
	specs := workload.All()
	rows, err := runIndexed(opts.Single.Parallel, len(specs), func(i int) (Fig13Row, error) {
		row, err := runFig13Function(specs[i], opts)
		if err != nil {
			return Fig13Row{}, fmt.Errorf("fig13 %s: %w", specs[i].Name, err)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig13Result{Rows: rows}, nil
}

func runFig13Function(spec *workload.Spec, opts Fig13Options) (Fig13Row, error) {
	row := Fig13Row{Function: spec.TableName()}

	type variant struct {
		aggressive bool
		swap       bool
		out        *sim.Duration
	}
	// The desiccant variant also learns the released volume so the
	// swap variant can push out the same amount (§5.6's "reclaiming
	// the same amount of memory as Desiccant").
	var releasedBytes int64
	variants := []variant{
		{false, false, &row.AfterDesiccant},
		{true, false, &row.AfterAggressive},
		{false, true, &row.AfterSwap},
	}
	for vi, v := range variants {
		run, err := newSingleRun(spec, opts.Single)
		if err != nil {
			return row, err
		}
		var warmLat []sim.Duration
		for i := 0; i < opts.WarmIterations; i++ {
			lat, err := run.iterate(Vanilla)
			if err != nil {
				return row, err
			}
			warmLat = append(warmLat, lat)
		}
		baseline := meanDuration(warmLat[len(warmLat)-opts.MeasureIterations:])
		if vi == 0 {
			row.Baseline = baseline
		}

		// Reclaim (or swap) every chain instance.
		for _, inst := range run.instances {
			if v.swap {
				target := releasedBytes / int64(len(run.instances))
				if target <= 0 {
					target = inst.USS() / 2
				}
				inst.SwapOutHeap(target)
				continue
			}
			rep := inst.Reclaim(v.aggressive, opts.Single.UnmapLibraries)
			if vi == 0 {
				releasedBytes += rep.ReleasedBytes
			}
		}

		var afterLat []sim.Duration
		for i := 0; i < opts.MeasureIterations; i++ {
			lat, err := run.iterate(Vanilla)
			if err != nil {
				return row, err
			}
			afterLat = append(afterLat, lat)
		}
		*v.out = meanDuration(afterLat)
	}
	return row, nil
}

func meanDuration(ds []sim.Duration) sim.Duration {
	var sum sim.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / sim.Duration(len(ds))
}

// WriteCSV renders the figure plus the §5.6 comparisons.
func (r *Fig13Result) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "function,baseline_ms,after_desiccant_ms,overhead_pct,after_swap_ms,swap_slowdown,after_aggressive_ms,aggressive_slowdown")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s,%.2f,%.2f,%.1f,%.2f,%.2f,%.2f,%.2f\n",
			row.Function, row.Baseline.Millis(), row.AfterDesiccant.Millis(),
			100*row.Overhead(), row.AfterSwap.Millis(), row.SwapSlowdown(),
			row.AfterAggressive.Millis(), row.AggressiveSlowdown())
	}
	fmt.Fprintf(w, "# mean overhead: %.1f%% (paper: 8.3%%)\n", 100*r.MeanOverhead())
}
