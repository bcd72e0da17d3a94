package calibrate

import (
	"fmt"
	"math"

	"desiccant/internal/experiments"
	"desiccant/internal/runtime"
	"desiccant/internal/workload"
)

// FigureRow is one held-out prediction in VALIDATION.json: a Fig.
// 7/8/9 quantity computed from the *fitted* model, compared against
// the paper's reported value, gated on signed relative error.
type FigureRow struct {
	Figure    string  `json:"figure"`
	Metric    string  `json:"metric"`
	Predicted float64 `json:"predicted"`
	Reference float64 `json:"reference"`
	RelErr    float64 `json:"relerr"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Pass      bool    `json:"pass"`
}

// predict runs the held-out experiments with the fitted workload set
// and scores each figure's headline metric. The three figure harnesses
// are independent, so they fan out across the pool (each internally
// parallel as well); rows assemble in a fixed order afterwards.
func predict(p Params, o Options) ([]FigureRow, error) {
	specs, err := p.ScaledSpecs()
	if err != nil {
		return nil, err
	}
	var fft *workload.Spec
	for _, s := range specs {
		if s.Name == "fft" {
			fft = s
		}
	}
	if fft == nil {
		return nil, fmt.Errorf("calibrate: fitted workload set lost fft")
	}

	single := experiments.DefaultSingleOptions()
	single.Iterations = o.PredictIterations
	single.Seed = o.Seed
	single.Parallel = o.Parallel

	counts, f9 := heldOutSetups(o)
	f9.Specs = specs

	var (
		fig7 *experiments.Fig7Result
		fig8 *experiments.Fig8Result
		fig9 *experiments.Fig9Result
	)
	steps := []func() error{
		func() (err error) { fig7, err = experiments.RunFig7(specs, single); return },
		func() (err error) { fig8, err = experiments.RunFig8Spec(fft, counts, single); return },
		func() (err error) { fig9, err = experiments.RunFig9(f9); return },
	}
	if err := experiments.ForEach(o.Parallel, len(steps), func(i int) error { return steps[i]() }); err != nil {
		return nil, err
	}

	var rows []FigureRow
	add := func(figure, metric string, predicted, reference float64, bandID string) {
		b := experiments.BandFor(bandID)
		re := relErr(predicted, reference)
		rows = append(rows, FigureRow{
			Figure: figure, Metric: metric,
			Predicted: predicted, Reference: reference, RelErr: re,
			Lo: b.Lo, Hi: b.Hi, Pass: b.Contains(re),
		})
	}

	add("fig7", "java_mean_reduction_x",
		fig7.LanguageMeanReduction(runtime.Java, false), 2.78,
		"calibrate.fig7.java_mean_reduction")
	add("fig7", "js_mean_reduction_x",
		fig7.LanguageMeanReduction(runtime.JavaScript, false), 1.93,
		"calibrate.fig7.js_mean_reduction")

	one := fig8.Points[0]
	add("fig8", "rss_improvement_1_x", one.RSSImprovement(), 4.16,
		"calibrate.fig8.rss_improvement_1")
	last := fig8.Points[len(fig8.Points)-1]
	add("fig8", "pss_to_uss_at_max_count",
		last.DesiccantPSS/math.Max(float64(last.DesiccantUSS), 1), 1.0,
		"calibrate.fig8.pss_to_uss")

	van, _ := fig9.Point(experiments.SetupVanilla, 15)
	des, _ := fig9.Point(experiments.SetupDesiccant, 15)
	// Guard the denominator: a zero Desiccant cold-boot rate would make
	// the improvement infinite, and JSON cannot carry ±Inf.
	add("fig9", "cold_boot_improvement_x",
		van.ColdBootRate/math.Max(des.ColdBootRate, 1e-9), 4.49,
		"calibrate.fig9.cold_boot_improvement")
	add("fig9", "reclaim_overhead_pct", 100*des.ReclaimOverhead, 6.2,
		"calibrate.fig9.reclaim_overhead_pct")
	return rows, nil
}

// maxFig8Count caps the instance counts the Figure 8 prediction runs
// at: its last point is the 8-instance one of the full run.
const maxFig8Count = 8

// heldOutSetups resolves the Figure 8 instance counts (up to
// maxFig8Count) and the Figure 9 replay (at scale 15) the predictions
// run, through the fig8 and fig9 experiments' own resolvers with o's
// Quick. The trace keeps its default seed, which VALIDATION.json pins.
func heldOutSetups(o Options) ([]int, experiments.Fig9Options) {
	opts := experiments.Options{Quick: o.Quick, Parallel: o.Parallel}
	var counts []int
	for _, n := range experiments.ResolveFig8(opts).Counts {
		if n <= maxFig8Count {
			counts = append(counts, n)
		}
	}
	f9 := experiments.ResolveFig9(opts)
	f9.Scales = []float64{15}
	return counts, f9
}
