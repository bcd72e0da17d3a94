package calibrate

import (
	"fmt"
	"slices"

	"desiccant/internal/experiments"
	"desiccant/internal/workload"
)

// CellResult is one metamorphic property evaluated on one runtime at
// one seed. A failing cell's Detail always names the seed that
// reproduces it.
type CellResult struct {
	Property string `json:"property"`
	Runtime  string `json:"runtime"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Pass     bool   `json:"pass"`
	Detail   string `json:"detail,omitempty"`
}

// The metamorphic properties: model-level implications that must hold
// whatever the fitted parameters are. Unlike the banded predictions,
// these have no tolerance to tune — they are exact relations between
// two runs of the simulator.
const (
	// propBudget: doubling the reclamation budget (reclaiming every
	// 4th, every 2nd, then every invocation) moves frozen memory
	// monotonically down.
	propBudget = "budget-monotone"
	// propAlloc: halving the allocation rate removes the young-gen
	// doubling — mean committed heap must strictly drop and the frozen
	// garbage ratio must not grow.
	propAlloc = "alloc-halving"
	// propZero: zero Desiccant intensity (reclamation disabled) is
	// byte-identical to the vanilla baseline.
	propZero = "zero-intensity"
	// propLive: growing the live set grows the ideal bound and the
	// frozen footprint with it.
	propLive = "live-monotone"
)

func properties() []string { return []string{propBudget, propAlloc, propZero, propLive} }

// runtimeCase pins one registered runtime implementation to a
// workload that exercises it.
type runtimeCase struct {
	Label    string // runtime package exercised
	Workload string
	Runtime  string // SingleOptions.RuntimeName override ("" = language default)
}

func runtimeCases() []runtimeCase {
	return []runtimeCase{
		{Label: "hotspot", Workload: "image-resize", Runtime: ""},
		{Label: "v8heap", Workload: "fft", Runtime: ""},
		{Label: "g1gc", Workload: "sort", Runtime: "g1"},
		{Label: "pyarena", Workload: "py-etl", Runtime: ""},
	}
}

type cellSpec struct {
	Property string
	Case     runtimeCase
	Seed     uint64
}

func metamorphicCells(seeds []uint64) []cellSpec {
	var out []cellSpec
	for _, p := range properties() {
		for _, rc := range runtimeCases() {
			for _, s := range seeds {
				out = append(out, cellSpec{Property: p, Case: rc, Seed: s})
			}
		}
	}
	return out
}

// RunMetamorphic evaluates every (property, runtime, seed) cell on the
// experiments cell pool. Each cell writes only its own result slot and
// the slice is read back in index order, so the outcome is
// byte-identical at any Parallel setting.
func RunMetamorphic(o Options) []CellResult {
	cells := metamorphicCells(o.MetaSeeds)
	if len(cells) == 0 {
		return nil
	}
	results := make([]CellResult, len(cells))
	// A cell reports its failure in its result, so the pool never errors.
	_ = experiments.ForEach(o.Parallel, len(cells), func(i int) error {
		results[i] = evalCell(cells[i], o.MetaIterations)
		return nil
	})
	return results
}

// evalCell evaluates one property instance. Internal errors count as
// failures (with the seed in the detail) rather than aborting the
// whole suite, so one broken cell cannot hide the others' verdicts.
func evalCell(c cellSpec, iters int) CellResult {
	res := CellResult{
		Property: c.Property, Runtime: c.Case.Label,
		Workload: c.Case.Workload, Seed: c.Seed, Pass: true,
	}
	fail := func(msg string) CellResult {
		res.Pass = false
		res.Detail = fmt.Sprintf("%s on %s/%s: %s (reproduce with seed %d)",
			c.Property, c.Case.Label, c.Case.Workload, msg, c.Seed)
		return res
	}
	spec, err := workload.Lookup(c.Case.Workload)
	if err != nil {
		return fail(err.Error())
	}
	opts := experiments.DefaultSingleOptions()
	opts.Iterations = iters
	opts.Seed = c.Seed
	opts.RuntimeName = c.Case.Runtime
	opts.Parallel = 1 // the cells themselves are the fan-out level

	var ok bool
	var msg string
	switch c.Property {
	case propBudget:
		ok, msg = checkBudgetMonotone(spec, opts)
	case propAlloc:
		ok, msg = checkAllocHalving(spec, opts)
	case propZero:
		ok, msg = checkZeroIntensity(spec, opts)
	case propLive:
		ok, msg = checkLiveMonotone(spec, opts)
	default:
		ok, msg = false, fmt.Sprintf("unknown property %q", c.Property)
	}
	if !ok {
		return fail(msg)
	}
	return res
}

// checkBudgetMonotone: reclaiming every invocation must leave no more
// frozen memory than every 2nd, which must leave no more than every
// 4th — and the extremes must actually differ.
func checkBudgetMonotone(spec *workload.Spec, opts experiments.SingleOptions) (bool, string) {
	var means [3]float64
	for i, every := range []int{4, 2, 1} {
		o := opts
		o.ReclaimEvery = every
		r, err := experiments.RunSingle(spec, experiments.Desiccant, o)
		if err != nil {
			return false, err.Error()
		}
		means[i] = meanInt64(r.USSCurve)
	}
	if !(means[0] >= means[1] && means[1] >= means[2]) {
		return false, fmt.Sprintf("mean USS not monotone under budget doubling: every4=%.0f every2=%.0f every1=%.0f",
			means[0], means[1], means[2])
	}
	if !(means[0] > means[2]) {
		return false, fmt.Sprintf("reclaiming 4x more often changed nothing: mean USS stays %.0f", means[0])
	}
	return true, ""
}

// checkAllocHalving: halving the allocation rate (live set untouched)
// removes the young-gen doubling, so neither the mean committed heap
// nor the max frozen-garbage ratio may grow meaningfully, and at
// least one of them must strictly drop. Tolerances absorb allocator
// granularity: committed heap moves in region/arena-block quanta (a
// halved run can commit one extra block, ~1% of the mean) and the max
// ratio is a single worst sampled instant that jitter can reshape.
func checkAllocHalving(spec *workload.Spec, opts experiments.SingleOptions) (bool, string) {
	half, err := (workload.Scaling{Alloc: 0.5, Live: 1, Pacing: 1}).Apply(spec)
	if err != nil {
		return false, err.Error()
	}
	full, err := experiments.RunSingle(spec, experiments.Vanilla, opts)
	if err != nil {
		return false, err.Error()
	}
	halved, err := experiments.RunSingle(half, experiments.Vanilla, opts)
	if err != nil {
		return false, err.Error()
	}
	meanFull, meanHalf := meanInt64(full.HeapCommittedCurve), meanInt64(halved.HeapCommittedCurve)
	if meanHalf > meanFull*1.02 {
		return false, fmt.Sprintf("mean committed heap grew when allocation halved: %.0f -> %.0f", meanFull, meanHalf)
	}
	rFull, rHalf := full.MaxRatio(), halved.MaxRatio()
	if rHalf > rFull*1.005 {
		return false, fmt.Sprintf("max frozen-garbage ratio grew when allocation halved: %.3f -> %.3f", rFull, rHalf)
	}
	if !(meanHalf < meanFull || rHalf < rFull*0.995) {
		return false, fmt.Sprintf("halving allocation left mean committed heap (%.0f) and max ratio (%.3f) both unchanged", meanFull, rFull)
	}
	return true, ""
}

// checkZeroIntensity: a Desiccant run that never reclaims must be
// byte-identical to the vanilla baseline on every observable curve.
func checkZeroIntensity(spec *workload.Spec, opts experiments.SingleOptions) (bool, string) {
	off := opts
	off.ReclaimEvery = -1
	dis, err := experiments.RunSingle(spec, experiments.Desiccant, off)
	if err != nil {
		return false, err.Error()
	}
	van, err := experiments.RunSingle(spec, experiments.Vanilla, opts)
	if err != nil {
		return false, err.Error()
	}
	switch {
	case !slices.Equal(dis.USSCurve, van.USSCurve):
		return false, "USS curves diverge with reclamation disabled"
	case !slices.Equal(dis.IdealCurve, van.IdealCurve):
		return false, "ideal curves diverge with reclamation disabled"
	case !slices.Equal(dis.HeapCommittedCurve, van.HeapCommittedCurve):
		return false, "heap-committed curves diverge with reclamation disabled"
	case !slices.Equal(dis.LatencyCurve, van.LatencyCurve):
		return false, "latency curves diverge with reclamation disabled"
	case dis.FinalRSS != van.FinalRSS || dis.FinalPSS != van.FinalPSS:
		return false, fmt.Sprintf("final RSS/PSS diverge: %d/%.1f vs %d/%.1f",
			dis.FinalRSS, dis.FinalPSS, van.FinalRSS, van.FinalPSS)
	}
	return true, ""
}

// checkLiveMonotone: growing the live set by 1.5x must grow the ideal
// bound strictly and must not shrink the frozen footprint.
func checkLiveMonotone(spec *workload.Spec, opts experiments.SingleOptions) (bool, string) {
	grown, err := (workload.Scaling{Alloc: 1, Live: 1.5, Pacing: 1}).Apply(spec)
	if err != nil {
		return false, err.Error()
	}
	base, err := experiments.RunSingle(spec, experiments.Vanilla, opts)
	if err != nil {
		return false, err.Error()
	}
	big, err := experiments.RunSingle(grown, experiments.Vanilla, opts)
	if err != nil {
		return false, err.Error()
	}
	if big.FinalIdeal() <= base.FinalIdeal() {
		return false, fmt.Sprintf("ideal bound did not grow with the live set: %d -> %d",
			base.FinalIdeal(), big.FinalIdeal())
	}
	if big.FinalUSS() < base.FinalUSS() {
		return false, fmt.Sprintf("frozen footprint shrank when the live set grew: %d -> %d",
			base.FinalUSS(), big.FinalUSS())
	}
	return true, ""
}

func meanInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
