// Package experiments implements one harness per figure of the
// paper's evaluation (§3 and §5). Each harness regenerates the
// figure's rows from the simulation; the CLI (cmd/desiccant-sim) and
// the benchmark suite (bench_test.go) are thin wrappers around these
// functions. EXPERIMENTS.md records paper-reported versus measured
// values for every figure.
package experiments

import (
	"fmt"

	"desiccant/internal/container"
	"desiccant/internal/metrics"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Mode is the per-instance memory management mode for single-function
// experiments.
type Mode int

// Modes compared throughout §5.
const (
	// Vanilla freezes without collecting.
	Vanilla Mode = iota
	// Eager forces the stock full GC at every exit (aggressive on V8).
	Eager
	// Desiccant reclaims after every freeze (the single-function
	// experiments assume memory is always scarce, §5.2).
	Desiccant
)

func (m Mode) String() string {
	switch m {
	case Vanilla:
		return "vanilla"
	case Eager:
		return "eager"
	case Desiccant:
		return "desiccant"
	default:
		return "mode(?)"
	}
}

// SingleOptions parameterizes a single-function run.
type SingleOptions struct {
	// Iterations is the number of end-to-end invocations (100 in the
	// paper).
	Iterations int
	// MemoryBudget is the per-instance memory limit.
	MemoryBudget int64
	// ShareLibraries is the OpenWhisk model; false is Lambda (§5.4).
	// Under it a background instance of the same language also maps
	// the libraries, so library pages drop out of USS, matching the
	// paper's measurement methodology ("excluding shared libraries
	// since they are shared by multiple FaaS instances with the same
	// language").
	ShareLibraries bool
	// UnmapLibraries applies §4.6 during Desiccant reclamation.
	UnmapLibraries bool
	// Seed drives workload jitter.
	Seed uint64
	// RuntimeName overrides the workloads' default runtime (the §7
	// G1 experiment runs Java functions on "g1").
	RuntimeName string
	// ReclaimEvery tunes Desiccant's reclamation cadence. The zero
	// value reclaims after every completed invocation (the paper's
	// §5.2 memory-is-always-scarce assumption and the behavior of every
	// experiment predating the calibration harness); k > 1 reclaims
	// after every k-th invocation (a smaller reclamation budget); a
	// negative value disables reclamation entirely — the zero-intensity
	// baseline the metamorphic suite requires to be byte-identical to
	// Vanilla.
	ReclaimEvery int
	// Parallel is the worker count sweeps fan sub-simulations out
	// across (0 = GOMAXPROCS, 1 = serial). Collection order is always
	// deterministic, so the setting never changes results.
	Parallel int
}

// DefaultSingleOptions mirrors §5.2: 256 MiB instances, 100
// iterations, OpenWhisk sharing.
func DefaultSingleOptions() SingleOptions {
	return SingleOptions{
		Iterations:     100,
		MemoryBudget:   256 << 20,
		ShareLibraries: true,
		UnmapLibraries: true,
		Seed:           1,
	}
}

// reclaimsOn reports whether Desiccant reclaims after the n-th
// completed invocation (1-based) under the configured cadence.
func (o SingleOptions) reclaimsOn(n int) bool {
	switch {
	case o.ReclaimEvery < 0:
		return false
	case o.ReclaimEvery <= 1:
		return true
	default:
		return n%o.ReclaimEvery == 0
	}
}

// SingleResult is the outcome of one single-function run.
type SingleResult struct {
	Spec *workload.Spec
	Mode Mode
	// USSCurve[i] is the accumulated USS across the chain's instances
	// after iteration i completed (instances frozen).
	USSCurve []int64
	// IdealCurve[i] is the page-aligned live-set lower bound at the
	// same instant.
	IdealCurve []int64
	// HeapCommittedCurve[i] is the runtimes' committed heap total.
	HeapCommittedCurve []int64
	// LatencyCurve[i] is the modeled invocation latency (whole chain).
	LatencyCurve []sim.Duration
	// RSS/PSS after the final iteration, per instance averages.
	FinalRSS int64
	FinalPSS float64
}

// FinalUSS returns the USS after the last iteration.
func (r *SingleResult) FinalUSS() int64 { return r.USSCurve[len(r.USSCurve)-1] }

// FinalIdeal returns the ideal bound after the last iteration.
func (r *SingleResult) FinalIdeal() int64 { return r.IdealCurve[len(r.IdealCurve)-1] }

// ratioDist folds the per-iteration USS/ideal ratios through a
// metrics.Distribution. Degenerate specs (zero live set and zero
// non-heap state) can drive the ideal bound to zero; metrics.Ratio
// then yields ±Inf or NaN and Distribution.Add rejects the sample, so
// no non-finite value escapes into reports.
func (r *SingleResult) ratioDist() *metrics.Distribution {
	var d metrics.Distribution
	for i := range r.USSCurve {
		d.Add(metrics.Ratio(float64(r.USSCurve[i]), float64(r.IdealCurve[i])))
	}
	return &d
}

// AvgRatio is the mean USS/ideal ratio over all iterations (§3.1's
// avg_ratio). Iterations with a zero ideal bound are excluded; a run
// with no finite ratio at all reports 0.
func (r *SingleResult) AvgRatio() float64 {
	d := r.ratioDist()
	if d.Count() == 0 {
		return 0
	}
	return d.Mean()
}

// MaxRatio is the maximum USS/ideal ratio over all iterations (§3.1's
// max_ratio), under the same non-finite rejection as AvgRatio.
func (r *SingleResult) MaxRatio() float64 {
	d := r.ratioDist()
	if d.Count() == 0 {
		return 0
	}
	return d.Max()
}

// RatioRejections counts the iterations whose USS/ideal ratio was
// non-finite and therefore excluded from AvgRatio and MaxRatio.
func (r *SingleResult) RatioRejections() int64 { return r.ratioDist().NonFinite() }

// AvgLatency returns the mean latency over iterations [from, to).
func (r *SingleResult) AvgLatency(from, to int) sim.Duration {
	if from < 0 || to > len(r.LatencyCurve) || from >= to {
		panic("experiments: bad latency window")
	}
	var sum sim.Duration
	for _, l := range r.LatencyCurve[from:to] {
		sum += l
	}
	return sum / sim.Duration(to-from)
}

// singleRun is a reusable single-function rig: chain instances on one
// machine with an optional library sharer.
type singleRun struct {
	opts      SingleOptions
	machine   *osmem.Machine
	instances []*container.Instance
	rng       *sim.RNG
	clock     sim.Time
	// completed counts finished end-to-end invocations, driving the
	// ReclaimEvery cadence.
	completed int
	// perInstanceCPU matches the platform's per-invocation share when
	// converting GC/fault core time to wall time.
	perInstanceCPU float64
}

func newSingleRun(spec *workload.Spec, opts SingleOptions) (*singleRun, error) {
	r := &singleRun{
		opts:           opts,
		machine:        osmem.NewMachine(),
		rng:            sim.NewRNG(opts.Seed),
		perInstanceCPU: 0.14,
	}
	if opts.ShareLibraries {
		if err := r.addSharer(spec.Language); err != nil {
			return nil, err
		}
	}
	for stage := 0; stage < spec.ChainLength; stage++ {
		inst, err := container.New(r.machine, stage+1, spec, stage, 0, container.Options{
			MemoryBudget:   opts.MemoryBudget,
			ShareLibraries: opts.ShareLibraries,
			RuntimeName:    opts.RuntimeName,
		})
		if err != nil {
			return nil, err
		}
		r.instances = append(r.instances, inst)
	}
	return r, nil
}

// addSharer maps the language's libraries into a background address
// space, modeling the other instances of the same language that share
// them on a production invoker.
func (r *singleRun) addSharer(lang runtime.Language) error {
	sharerSpec := &workload.Spec{
		Name: "background-sharer", Language: lang, ChainLength: 1,
		ExecTime: sim.Millisecond, ObjectSize: 4096, NonHeapBytes: 4096,
	}
	_, err := container.New(r.machine, 0, sharerSpec, 0, 0, container.Options{
		MemoryBudget:   r.opts.MemoryBudget,
		ShareLibraries: true,
	})
	return err
}

// iterate runs one end-to-end invocation of the function (all chain
// stages) under the given mode, returning the modeled latency.
func (r *singleRun) iterate(mode Mode) (sim.Duration, error) {
	var latency sim.Duration
	for _, inst := range r.instances {
		r.clock = r.clock.Add(sim.Second)
		inst.BeginRun(r.clock)
		rep, gc, faults, err := inst.InvokeBody(r.rng)
		if err != nil {
			return 0, fmt.Errorf("%s stage %d: %w", inst.Spec.Name, inst.Stage, err)
		}
		wall := sim.Duration(r.rng.Jitter(float64(inst.Spec.ExecTime), 0.08))
		if rep.DeoptApplied && inst.Spec.DeoptSlowdown > 1 {
			wall = sim.Duration(float64(wall) * inst.Spec.DeoptSlowdown)
		}
		wall += sim.WorkDuration(gc+faults, r.perInstanceCPU)
		latency += wall
		r.clock = r.clock.Add(wall)

		if mode == Eager {
			// The eager baseline triggers the stock GC hook at exit,
			// which on V8 is an aggressive collection (§4.7).
			inst.Runtime.CollectFull(true)
			inst.Runtime.DrainGCCost() // platform CPU, not user latency
		}
		inst.Freeze(r.clock)
	}
	// Chain completed: intermediates consumed downstream.
	for _, inst := range r.instances {
		inst.State.ReleaseIntermediates()
	}
	r.completed++
	if mode == Desiccant && r.opts.reclaimsOn(r.completed) {
		// §5.2 assumes memory is scarce, so Desiccant by default
		// reclaims every frozen instance after each run; ReclaimEvery
		// stretches (or disables) that cadence.
		for _, inst := range r.instances {
			inst.Reclaim(false, r.opts.UnmapLibraries)
		}
	}
	return latency, nil
}

// uss sums USS across the chain's instances.
func (r *singleRun) uss() int64 {
	var sum int64
	for _, inst := range r.instances {
		sum += inst.USS()
	}
	return sum
}

// ideal is the lower bound the paper compares against: live heap
// bytes (page-aligned) plus the non-heap state the process genuinely
// needs, summed over the chain's instances.
func (r *singleRun) ideal() int64 {
	var sum int64
	for _, inst := range r.instances {
		live := osmem.PagesFor(inst.Runtime.LiveBytes()) * osmem.PageSize
		nonheap := inst.Spec.NonHeapBytes
		sum += live + nonheap
	}
	return sum
}

func (r *singleRun) heapCommitted() int64 {
	var sum int64
	for _, inst := range r.instances {
		sum += inst.Runtime.HeapCommitted()
	}
	return sum
}

// RunSingle executes the full single-function experiment.
func RunSingle(spec *workload.Spec, mode Mode, opts SingleOptions) (*SingleResult, error) {
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("experiments: non-positive iterations")
	}
	run, err := newSingleRun(spec, opts)
	if err != nil {
		return nil, err
	}
	res := &SingleResult{Spec: spec, Mode: mode}
	for i := 0; i < opts.Iterations; i++ {
		lat, err := run.iterate(mode)
		if err != nil {
			return nil, err
		}
		res.LatencyCurve = append(res.LatencyCurve, lat)
		res.USSCurve = append(res.USSCurve, run.uss())
		res.IdealCurve = append(res.IdealCurve, run.ideal())
		res.HeapCommittedCurve = append(res.HeapCommittedCurve, run.heapCommitted())
	}
	var rss int64
	var pss float64
	for _, inst := range run.instances {
		u := inst.Usage()
		rss += u.RSS
		pss += u.PSS
	}
	res.FinalRSS = rss / int64(len(run.instances))
	res.FinalPSS = pss / float64(len(run.instances))
	return res, nil
}
