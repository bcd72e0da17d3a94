package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

// Options tunes a registry-driven run.
type Options struct {
	// Quick shrinks iteration counts and sweeps for smoke runs; the
	// shapes survive, the absolute numbers get noisier.
	Quick bool
	// Seed overrides the default seed when non-zero.
	Seed uint64
	// Parallel is the sweep worker count (0 = GOMAXPROCS, 1 = serial).
	// Output is byte-identical regardless of the setting.
	Parallel int

	// Trace, when non-nil, receives a Chrome/Perfetto trace of the run
	// (observe, trace and ext-attr; load into ui.perfetto.dev).
	Trace io.Writer
	// Metrics, when non-nil, receives the sampled metrics time series
	// as CSV (observe experiment only).
	Metrics io.Writer
	// Summary switches the main output of observe, trace and ext-attr
	// from their CSV to a human-readable digest.
	Summary bool
	// Intensity, when positive, pins the chaos experiment's fault
	// intensity instead of sweeping the default axis.
	Intensity float64
	// Validation, when non-nil, receives the machine-readable
	// VALIDATION.json report (calibrate experiment only).
	Validation io.Writer
}

// Validate reports the first option no experiment can run with,
// naming its field.
func (o Options) Validate() error {
	switch {
	case o.Parallel < 0:
		return fmt.Errorf("experiments: Parallel must be >= 0, got %d", o.Parallel)
	case !(o.Intensity >= 0 && o.Intensity <= 1): // NaN fails both comparisons
		return fmt.Errorf("experiments: Intensity must be in [0,1], got %v", o.Intensity)
	}
	return nil
}

// SeedOr returns the Seed override, or def when none is set.
func (o Options) SeedOr(def uint64) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// The resolvers below turn Options into each experiment's own options
// value, one function per experiment (Entry.Resolve). They are the only
// readers of Quick and Seed, and a shrink several experiments share is
// written once, in the resolver they share. A resolved value holds
// simulation parameters only; the run step wires the output writers.

// singleOptions is §5.2's single-machine setup; -quick runs 20
// iterations.
func singleOptions(opts Options) SingleOptions {
	s := DefaultSingleOptions()
	if opts.Quick {
		s.Iterations = 20
	}
	s.Seed = opts.SeedOr(s.Seed)
	s.Parallel = opts.Parallel
	return s
}

// g1Options runs the single-machine setup on the G1-style heap (§7).
func g1Options(opts Options) SingleOptions {
	s := singleOptions(opts)
	s.RuntimeName = "g1"
	return s
}

// budgetSweep is the setup of fig4 and fig12: the single-machine runs
// at each memory budget.
type budgetSweep struct {
	Budgets []int64
	Single  SingleOptions
}

// budgetOptions sweeps the paper's 256 MiB, 512 MiB and 1 GiB budgets;
// -quick drops the largest.
func budgetOptions(opts Options) budgetSweep {
	b := budgetSweep{Budgets: []int64{256 << 20, 512 << 20, 1024 << 20}, Single: singleOptions(opts)}
	if opts.Quick {
		b.Budgets = b.Budgets[:2]
	}
	return b
}

// ResolveFig8 resolves Figure 8: 1 to 16 co-located instances, 1 to 4
// under -quick. Calibrate predicts Figure 8 at these counts.
func ResolveFig8(opts Options) Fig8Options {
	o := Fig8Options{Counts: []int{1, 2, 4, 8, 16}, Single: singleOptions(opts)}
	if opts.Quick {
		o.Counts = o.Counts[:3]
	}
	return o
}

// fig13Options is §5.6's methodology: 130 warm and 10 measured
// iterations around the reclamation, 30 and 5 under -quick.
func fig13Options(opts Options) Fig13Options {
	o := Fig13Options{Single: singleOptions(opts), WarmIterations: 130, MeasureIterations: 10}
	if opts.Quick {
		o.WarmIterations, o.MeasureIterations = 30, 5
	}
	return o
}

// ResolveFig9 resolves Figure 9's trace replay (§5.3). -quick sweeps
// scales 5, 15 and 25 of a 20 s warm-up and a 60 s replay over 500
// trace functions. Every single-machine replay experiment and
// calibrate's Figure 9 prediction start from it.
func ResolveFig9(opts Options) Fig9Options {
	o := DefaultFig9Options()
	if opts.Quick {
		o.Scales = []float64{5, 15, 25}
		o.Warmup = 20 * sim.Second
		o.Replay = 60 * sim.Second
		o.Functions = 500
	}
	o.Seed = opts.SeedOr(o.Seed)
	o.Parallel = opts.Parallel
	return o
}

// fig10Options is Figure 10's replay: fig9's at scales 15 and 25, 15
// alone under -quick.
func fig10Options(opts Options) Fig9Options {
	o := ResolveFig9(opts)
	o.Scales = []float64{15, 25}
	if opts.Quick {
		o.Scales = o.Scales[:1]
	}
	return o
}

// tailScaleOptions is the replay of ext-snapstart and ext-prewarm:
// fig10's at its highest scale.
func tailScaleOptions(opts Options) Fig9Options {
	o := fig10Options(opts)
	o.Scales = o.Scales[len(o.Scales)-1:]
	return o
}

// claimScaleOptions is fig9's replay at scale 15 alone, where validate
// checks the C2 claims and ext-idle compares activation policies.
func claimScaleOptions(opts Options) Fig9Options {
	o := ResolveFig9(opts)
	o.Scales = []float64{15}
	return o
}

// validationOptions is the claim checks' setup: the single-machine
// runs at 30 iterations under -quick, and the claim-scale replay.
func validationOptions(opts Options) ValidationOptions {
	o := ValidationOptions{Single: singleOptions(opts), Replay: claimScaleOptions(opts)}
	if opts.Quick {
		o.Single.Iterations = 30
	}
	return o
}

// replayProfile is the trace replay the observe, trace, ext-fleet and
// ext-attr experiments share: 400 functions from seed 11 at 2.2 req/s,
// replayed at scale 15 for 60 s into 2 GiB caches. -quick shrinks it
// to 20 s and 200 functions. The fleets add their Nodes, Policy and
// Mode.
func replayProfile(opts Options) cluster.Options {
	o := cluster.Options{
		Window:     60 * sim.Second,
		Scale:      15,
		CacheBytes: 2 << 30,
		Synthetic:  trace.Synthetic{Seed: opts.SeedOr(11), Functions: 400, BaseRate: 2.2},
	}
	if opts.Quick {
		o.Window = 20 * sim.Second
		o.Functions = 200
	}
	return o
}

// observeOptions is the shared profile on one machine, sampled every
// 500 ms.
func observeOptions(opts Options) ObserveOptions {
	p := replayProfile(opts)
	return ObserveOptions{
		Scale:       p.Scale,
		Window:      p.Window,
		CacheBytes:  p.CacheBytes,
		Synthetic:   p.Synthetic,
		SampleEvery: 500 * sim.Millisecond,
	}
}

// fleetOptions is the ext-fleet configuration: the cluster's static
// pinned fleet, 8 Desiccant machines behind one router under
// replayProfile (4 machines in quick mode).
func fleetOptions(opts Options) cluster.Options {
	o := replayProfile(opts)
	o.Nodes = 8
	if opts.Quick {
		o.Nodes = 4
	}
	o.Policy = cluster.PolicyPinned
	o.Mode = "reclaim"
	return o
}

// attrOptions is the ext-attr configuration: a 4-machine pinned fleet
// under replayProfile, sweeping all three manager modes; -quick runs 2
// machines and skips the swap mode.
func attrOptions(opts Options) AttrOptions {
	o := AttrOptions{Cluster: replayProfile(opts), Modes: cluster.Modes}
	o.Cluster.Nodes = 4
	o.Cluster.Policy = cluster.PolicyPinned
	if opts.Quick {
		o.Cluster.Nodes = 2
		o.Modes = []string{"vanilla", "reclaim"}
	}
	return o
}

// clusterSweepOptions is the committed fleet sweep; -quick runs a
// 4-node table of two modes over a 2x2 capacity grid.
func clusterSweepOptions(opts Options) ClusterSweepOptions {
	o := DefaultClusterSweepOptions()
	if opts.Quick {
		o.Nodes = 4
		o.Window = 10 * sim.Second
		o.Functions = 120
		o.CacheBytes = 128 << 20
		o.Modes = []string{"vanilla", "reclaim"}
		o.GridNodes = []int{2, 4}
		o.GridCache = []int64{64 << 20, 128 << 20}
	}
	o.Seed = opts.SeedOr(o.Seed)
	o.Parallel = opts.Parallel
	return o
}

// chaosOptions is the robustness sweep: 45 s cells of 180 requests at
// intensities 0, 0.5 and 1 (20 s and 100 requests under -quick), or at
// the one Intensity pinned.
func chaosOptions(opts Options) ChaosOptions {
	o := ChaosOptions{
		Seed:        opts.SeedOr(17),
		Window:      45 * sim.Second,
		Requests:    180,
		Intensities: []float64{0, 0.5, 1.0},
		Parallel:    opts.Parallel,
	}
	if opts.Quick {
		o.Window = 20 * sim.Second
		o.Requests = 100
	}
	if opts.Intensity > 0 {
		o.Intensities = []float64{opts.Intensity}
	}
	return o
}
