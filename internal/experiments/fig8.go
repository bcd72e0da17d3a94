package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/container"
	"desiccant/internal/metrics"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Fig8Point records per-instance RSS/PSS for one concurrency level.
type Fig8Point struct {
	Instances int
	// Per-instance averages after the runs, bytes.
	VanillaRSS   int64
	VanillaPSS   float64
	VanillaUSS   int64
	DesiccantRSS int64
	DesiccantPSS float64
	DesiccantUSS int64
}

// RSSImprovement is vanilla/desiccant for RSS.
func (p Fig8Point) RSSImprovement() float64 {
	return metrics.Ratio(float64(p.VanillaRSS), float64(p.DesiccantRSS))
}

// PSSImprovement is vanilla/desiccant for PSS.
func (p Fig8Point) PSSImprovement() float64 {
	return metrics.Ratio(p.VanillaPSS, p.DesiccantPSS)
}

// Fig8Result reproduces Figure 8: per-instance RSS and PSS
// improvement as the number of concurrent instances of the same
// function grows. At one instance the libraries are private, so
// in-heap reclamation plus the unmap optimization improve both
// metrics strongly (the paper reports 4.16×); as instances multiply,
// RSS stays put while PSS converges towards USS because library pages
// amortize.
type Fig8Result struct {
	Function string
	Points   []Fig8Point
}

// Fig8Options parameterizes Figure 8: the co-located instance counts
// swept and the single-machine options of every run.
type Fig8Options struct {
	Counts []int
	Single SingleOptions
}

// RunFig8 sweeps instance counts for one function (the paper uses fft).
func RunFig8(name string, counts []int, opts SingleOptions) (*Fig8Result, error) {
	spec, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	return RunFig8Spec(spec, counts, opts)
}

// RunFig8Spec is RunFig8 for an explicit spec, which need not be
// registered — the calibration layer predicts Figure 8 from fitted
// (scaled) copies of the Table 1 workloads.
func RunFig8Spec(spec *workload.Spec, counts []int, opts SingleOptions) (*Fig8Result, error) {
	if spec.ChainLength != 1 {
		return nil, fmt.Errorf("fig8 requires a plain function, %s is a chain", spec.Name)
	}
	res := &Fig8Result{Function: spec.TableName()}
	modes := []Mode{Vanilla, Desiccant}
	type cell struct {
		rss int64
		pss float64
		uss int64
	}
	cells, err := runIndexed(opts.Parallel, len(counts)*len(modes), func(i int) (cell, error) {
		n, mode := counts[i/len(modes)], modes[i%len(modes)]
		rss, pss, uss, err := runFig8Cell(spec, n, mode, opts)
		if err != nil {
			return cell{}, fmt.Errorf("fig8 n=%d %s: %w", n, mode, err)
		}
		return cell{rss, pss, uss}, nil
	})
	if err != nil {
		return nil, err
	}
	for ci, n := range counts {
		v, d := cells[ci*len(modes)], cells[ci*len(modes)+1]
		res.Points = append(res.Points, Fig8Point{
			Instances:    n,
			VanillaRSS:   v.rss,
			VanillaPSS:   v.pss,
			VanillaUSS:   v.uss,
			DesiccantRSS: d.rss,
			DesiccantPSS: d.pss,
			DesiccantUSS: d.uss,
		})
	}
	return res, nil
}

// runFig8Cell runs n co-located instances of spec and returns the
// per-instance average RSS, PSS and USS.
func runFig8Cell(spec *workload.Spec, n int, mode Mode, opts SingleOptions) (int64, float64, int64, error) {
	machine := osmem.NewMachine()
	rng := sim.NewRNG(opts.Seed)
	var instances []*container.Instance
	for i := 0; i < n; i++ {
		inst, err := container.New(machine, i+1, spec, 0, 0, container.Options{
			MemoryBudget:   opts.MemoryBudget,
			ShareLibraries: opts.ShareLibraries,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		instances = append(instances, inst)
	}
	clock := sim.Time(0)
	for iter := 0; iter < opts.Iterations; iter++ {
		for _, inst := range instances {
			clock = clock.Add(100 * sim.Millisecond)
			inst.BeginRun(clock)
			if _, _, _, err := inst.InvokeBody(rng); err != nil {
				return 0, 0, 0, err
			}
			inst.Freeze(clock)
		}
		if mode == Desiccant {
			for _, inst := range instances {
				inst.Reclaim(false, opts.UnmapLibraries)
			}
		}
	}
	var rss, uss int64
	var pss float64
	for _, inst := range instances {
		u := inst.Usage()
		rss += u.RSS
		pss += u.PSS
		uss += u.USS
	}
	return rss / int64(n), pss / float64(n), uss / int64(n), nil
}

// WriteCSV renders the sweep.
func (r *Fig8Result) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s RSS/PSS vs concurrent instances\n", r.Function)
	fmt.Fprintln(w, "instances,vanilla_rss_mb,desiccant_rss_mb,rss_improvement,vanilla_pss_mb,desiccant_pss_mb,pss_improvement,desiccant_uss_mb")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			p.Instances,
			metrics.MB(p.VanillaRSS), metrics.MB(p.DesiccantRSS), p.RSSImprovement(),
			p.VanillaPSS/(1<<20), p.DesiccantPSS/(1<<20), p.PSSImprovement(),
			metrics.MB(p.DesiccantUSS))
	}
}
