// Package calibrate is the predictive-validation layer (ROADMAP item
// 5): it *fits* the workload-model parameters on the paper's Table 1
// characterization numbers (held-in), then *predicts* the Fig. 7/8/9
// headline quantities with the fitted model (held-out) and gates each
// prediction's relative error on the shared band table — the
// fit-on-held-in / predict-held-out discipline of Quaresma et al. A
// metamorphic suite rides on top: exact model-level implications
// (budget monotonicity, allocation halving, zero intensity, live-set
// growth) checked across every registered runtime. Everything is a
// pure function of Options — seeded sim RNG, no wall-clock — so
// reports are byte-identical at any -parallel setting.
package calibrate

import (
	"fmt"
	"io"

	"desiccant/internal/experiments"
)

// Options parameterizes a calibration run. Every field participates
// in the report's identity except Parallel, which only changes
// wall-clock time.
type Options struct {
	// Seed drives the fit's coordinate shuffle and every simulation
	// the fit and the predictions run.
	Seed uint64
	// Quick shrinks iteration counts and trace windows for smoke runs.
	Quick bool
	// Parallel is the worker count of the sweeps and the metamorphic
	// cells (0 = GOMAXPROCS, 1 = serial).
	Parallel int

	// FitPasses is the number of coordinate-descent sweeps; the step
	// halves between passes.
	FitPasses int
	// FitIterations is the single-run iteration count per loss
	// evaluation.
	FitIterations int
	// PredictIterations is the single-run iteration count for the
	// Fig. 7/8 predictions (Fig. 9 is window-driven instead).
	PredictIterations int
	// MetaIterations is the single-run iteration count inside each
	// metamorphic cell.
	MetaIterations int
	// MetaSeeds are the seeds every (property, runtime) pair is
	// evaluated at.
	MetaSeeds []uint64
}

// DefaultOptions is the full calibration run.
func DefaultOptions() Options { return calibrateOptions(experiments.Options{}) }

// calibrateOptions resolves the calibrate experiment: the full run,
// or under -quick the CI smoke configuration.
func calibrateOptions(opts experiments.Options) Options {
	o := Options{
		Seed:              opts.SeedOr(1),
		Quick:             opts.Quick,
		Parallel:          opts.Parallel,
		FitPasses:         3,
		FitIterations:     30,
		PredictIterations: 100,
		MetaIterations:    24,
		MetaSeeds:         []uint64{1, 7, 1337},
	}
	if opts.Quick {
		o.FitPasses = 2
		o.FitIterations = 12
		o.PredictIterations = 30
		o.MetaIterations = 12
		o.MetaSeeds = []uint64{1, 7}
	}
	return o
}

// Run executes the full pipeline: fit, predict, metamorphic.
func Run(o Options) (*Report, error) {
	if o.FitPasses < 1 || o.FitIterations < 1 || o.PredictIterations < 1 || o.MetaIterations < 2 {
		return nil, fmt.Errorf("calibrate: non-positive iteration options")
	}
	fit, err := Fit(o)
	if err != nil {
		return nil, err
	}
	figures, err := predict(fit.Params, o)
	if err != nil {
		return nil, err
	}
	return &Report{
		Schema:      SchemaV1,
		Seed:        o.Seed,
		Quick:       o.Quick,
		Params:      fit.Params,
		InitialLoss: fit.InitialLoss,
		Loss:        fit.Loss,
		LossEvals:   fit.Evals,
		Targets:     fit.Targets,
		Figures:     figures,
		Metamorphic: RunMetamorphic(o),
	}, nil
}

// init registers the experiment; cmd/desiccant-sim pulls this package
// in with a blank import (the registry lives in experiments, which
// this package drives and therefore cannot be imported by).
func init() {
	experiments.Register(experiments.NewEntry(experiments.Entry{
		Name: "calibrate", Figure: "Validation", Claim: "C1+C2",
		Description: "fit on Table 1 characterization, predict Figs. 7/8/9 with relerr bands, metamorphic gates",
		Flags:       []string{"json"},
	}, calibrateOptions, runExperiment))
}

func runExperiment(w io.Writer, o Options, opts experiments.Options) error {
	rep, err := Run(o)
	if err != nil {
		return err
	}
	rep.WriteText(w)
	if opts.Validation != nil {
		if err := rep.WriteJSON(opts.Validation); err != nil {
			return err
		}
	}
	if !rep.Pass() {
		return fmt.Errorf("calibrate: %s", rep.FirstFailure())
	}
	return nil
}
