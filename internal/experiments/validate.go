package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/metrics"
	"desiccant/internal/runtime"
	"desiccant/internal/workload"
)

// Check is one validated claim: the paper's statement, our measured
// value, the acceptance band (with the rationale recorded in the
// shared band table), and the verdict.
type Check struct {
	ID       string
	Claim    string
	Measured float64
	Lo, Hi   float64
	// Rationale is the band's provenance, copied from the table in
	// bands.go so every verdict carries its tolerance source.
	Rationale string
	Pass      bool
}

// ValidationResult is the artifact-style claim check (the paper's
// appendix lists claims C1/C2 and the experiments proving them; this
// runs reduced versions of those experiments and verdicts each
// sub-claim).
type ValidationResult struct {
	Checks []Check
}

// AllPassed reports whether every check passed.
func (v *ValidationResult) AllPassed() bool {
	for _, c := range v.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// add records a check against the band registered for id in bands.go
// — the same table the calibrate experiment gates its predictions on,
// so the two never drift apart.
func (v *ValidationResult) add(id, claim string, measured float64) {
	v.addBand(id, claim, measured, BandFor(id))
}

func (v *ValidationResult) addBand(id, claim string, measured float64, b Band) {
	v.Checks = append(v.Checks, Check{
		ID: id, Claim: claim, Measured: measured, Lo: b.Lo, Hi: b.Hi,
		Rationale: b.Rationale,
		Pass:      b.Contains(measured),
	})
}

// ValidationOptions parameterizes the claim checks: the options of
// their single-machine runs and of their trace replay at scale 15.
type ValidationOptions struct {
	Single SingleOptions
	Replay Fig9Options
}

// RunValidation executes the claim checks. The four experiment groups
// behind the claims are independent, so they run concurrently on
// o.Single.Parallel workers (each internally parallel as well); the
// checks are appended in a fixed order afterwards so the report is
// deterministic.
func RunValidation(o ValidationOptions) (*ValidationResult, error) {
	v := &ValidationResult{}
	single := o.Single

	var (
		fig1  *Fig1Result
		fig7  *Fig7Result
		fig12 *Fig12Result
		fig9  *Fig9Result
	)
	steps := []func() error{
		func() (err error) { fig1, err = RunFig1(single); return },
		func() (err error) { fig7, err = RunFig7(workload.All(), single); return },
		func() (err error) { fig12, err = RunFig12([]int64{256 << 20, 1024 << 20}, single); return },
		func() (err error) { fig9, err = RunFig9(o.Replay); return },
	}
	if err := ForEach(single.Parallel, len(steps), func(i int) error { return steps[i]() }); err != nil {
		return nil, err
	}

	// --- C1: memory characterization and reclamation ---
	javaRatio := fig1.LanguageAvgMaxRatio(runtime.Java)
	jsRatio := fig1.LanguageAvgMaxRatio(runtime.JavaScript)
	v.add("C1.1", "every function generates frozen garbage (min max-ratio > 1)",
		minRowRatio(fig1))
	v.add("C1.2", "Java mean of max ratios near the paper's 2.72", javaRatio)
	v.add("C1.3", "JavaScript mean of max ratios near the paper's 2.15", jsRatio)

	v.add("C1.4", "Desiccant reduces Java memory vs vanilla (paper 2.78x)",
		fig7.LanguageMeanReduction(runtime.Java, false))
	v.add("C1.5", "Desiccant reduces JavaScript memory vs vanilla (paper 1.93x)",
		fig7.LanguageMeanReduction(runtime.JavaScript, false))
	v.add("C1.6", "Desiccant beats eager GC on both languages",
		minF(fig7.LanguageMeanReduction(runtime.Java, true),
			fig7.LanguageMeanReduction(runtime.JavaScript, true)))
	v.add("C1.7", "Desiccant lands near the ideal bound (paper 0.1%/6.4%)",
		100*maxF(fig7.LanguageMeanGap(runtime.Java), fig7.LanguageMeanGap(runtime.JavaScript)))

	fftV, _ := Cell(fig12.FFT, 1024, Vanilla)
	fftD, _ := Cell(fig12.FFT, 1024, Desiccant)
	v.add("C1.8", "fft at 1GiB improves strongly (paper 6.72x)",
		metrics.Ratio(float64(fftV.USS), float64(fftD.USS)))

	// --- C2: end-to-end performance on traces ---
	van, _ := fig9.Point(SetupVanilla, 15)
	des, _ := fig9.Point(SetupDesiccant, 15)
	v.add("C2.1", "Desiccant reduces the cold-boot rate (paper up to 4.49x)",
		metrics.Ratio(van.ColdBootRate, des.ColdBootRate))
	v.add("C2.2", "reclamation CPU overhead stays small (paper <= 6.2%)",
		100*des.ReclaimOverhead)
	v.add("C2.3", "Desiccant's CPU utilization does not exceed vanilla's",
		des.CPUUtilization/maxF(van.CPUUtilization, 1e-9))
	return v, nil
}

func minRowRatio(r *Fig1Result) float64 {
	min := 1e18
	for _, row := range r.Rows {
		if row.MaxRatio < min {
			min = row.MaxRatio
		}
	}
	return min
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// WriteText renders the verdicts.
func (v *ValidationResult) WriteText(w io.Writer) {
	for _, c := range v.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "[%s] %-5s %-60s measured=%.3f band=[%.2f, %.2f]\n",
			verdict, c.ID, c.Claim, c.Measured, c.Lo, c.Hi)
	}
	if v.AllPassed() {
		fmt.Fprintln(w, "all claims hold")
	} else {
		fmt.Fprintln(w, "SOME CLAIMS FAILED")
	}
}
