package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"desiccant/internal/calibrate"
	"desiccant/internal/experiments"
	"desiccant/internal/sim"
)

// A workload is one input set the benchmark runs, through the same
// public entry points desiccant-sim calls.
type workload struct {
	name string
	// refSeed is the seed the committed reference files were generated
	// with. At that seed every rep must reproduce them byte for byte.
	refSeed uint64
	// fixed workloads run the committed inputs at every seed.
	fixed bool
	// refs are the committed files a rep at refSeed reproduces, in the
	// order rep returns its outputs.
	refs []reference
	// rep runs the workload once and returns one output per reference.
	rep func(in input) (repResult, error)
}

// reference is one committed output file, relative to the repository
// root. filter, when set, cuts out the part of the file a rep writes.
type reference struct {
	path   string
	filter func([]byte) []byte
}

// input is what a rep is built from.
type input struct {
	seed      uint64
	reference bool // the seed selects the committed inputs
	parallel  int
}

// repResult is one rep's outputs plus what the entry points return
// that the per-layer report shows.
type repResult struct {
	outputs   [][]byte
	counts    simCounts
	spans     []float64 // characterize: wall seconds per experiments.Run call
	relerrMax float64   // calibrate: max |relerr| over held-out figures
}

// simCounts are simulated events summed over a rep's cells.
type simCounts struct {
	Completions, ColdBoots, Evictions, Migrations, Reports int64
}

// characterizeExperiments are the single-machine figures, in run order.
var characterizeExperiments = []string{
	"fig1", "fig2", "fig4", "fig7", "fig8", "fig11", "fig12", "fig13", "ext-g1", "ext-python",
}

// replayScales are Figure 10's scale factors: the two heaviest-loaded
// cells of the Figure 9 sweep that the paper reads tail latency at.
var replayScales = []float64{15, 25}

// workloads is the benchmark's workload table. Tests swap entries in.
var workloads = []workload{
	{
		name: "replay", refSeed: 11,
		refs: []reference{{path: "results/fig10.csv"}, {path: "results/fig9.csv", filter: fig9Rows}},
		rep:  runReplay,
	},
	{
		name: "cluster", refSeed: 11, fixed: true,
		refs: []reference{{path: "internal/experiments/testdata/golden_cluster_sweep.csv"}},
		rep:  runCluster,
	},
	{
		name: "characterize", refSeed: 1,
		refs: characterizeRefs(),
		rep:  runCharacterize,
	},
	{
		name: "calibrate", refSeed: 1, fixed: true,
		refs: []reference{{path: "VALIDATION.json"}},
		rep:  runCalibrate,
	},
}

// reference reports whether seed selects the committed inputs.
func (w *workload) reference(seed uint64) bool { return w.fixed || seed == w.refSeed }

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func characterizeRefs() []reference {
	refs := make([]reference, len(characterizeExperiments))
	for i, name := range characterizeExperiments {
		refs[i] = reference{path: "results/" + name + ".csv"}
	}
	return refs
}

// runReplay runs Figure 9's sweep at replayScales. Any seed but the
// reference one draws the base arrival rate within ±1% of the default;
// the function population stays the reference trace's. A new trace
// seed would pick another population: over trace seeds 1-8 that moved
// Figure 9's host time from 3 s to 30 s per sweep, which would drown
// any regression, while a ±1% draw is already another event trajectory
// at a near-equal cost.
func runReplay(in input) (repResult, error) {
	o := experiments.DefaultFig9Options()
	o.Scales = replayScales
	if !in.reference {
		o.BaseRate *= 1 + (sim.NewRNG(in.seed).Float64()-0.5)/50
	}
	o.Parallel = in.parallel
	res, err := experiments.RunFig9(o)
	if err != nil {
		return repResult{}, err
	}
	var fig10, fig9 bytes.Buffer
	res.WriteFig10CSV(&fig10, o.Scales)
	res.WriteCSV(&fig9)
	var c simCounts
	for _, p := range res.Points {
		c.Completions += p.Completions
		c.ColdBoots += int64(math.Round(p.ColdBootRate * float64(p.Completions)))
		c.Evictions += p.Evictions
	}
	return repResult{outputs: [][]byte{fig10.Bytes(), fig9.Bytes()}, counts: c}, nil
}

// fig9Rows keeps the header of results/fig9.csv and the rows at
// replayScales, which is what the replay rep's WriteCSV produces.
func fig9Rows(csv []byte) []byte {
	keep := map[string]bool{}
	for _, s := range replayScales {
		keep[strconv.FormatFloat(s, 'f', 0, 64)] = true
	}
	var out []byte
	for i, line := range bytes.SplitAfter(csv, []byte("\n")) {
		f := bytes.Split(line, []byte(","))
		if i == 0 || len(f) > 1 && keep[string(f[1])] {
			out = append(out, line...)
		}
	}
	return out
}

// runCluster runs the committed sweep whatever the seed. With the base
// rate drawn as replay draws it, the sweep panicked at two of sixty
// seeds (2.1805772531313603 and 2.2182882881350894 req/s): the core
// manager was granted so small a share of idle CPU that its
// reclaim-done event overflowed simulated time.
func runCluster(in input) (repResult, error) {
	o := experiments.DefaultClusterSweepOptions()
	o.Parallel = in.parallel
	res, err := experiments.RunClusterSweep(o)
	if err != nil {
		return repResult{}, err
	}
	var out bytes.Buffer
	res.WriteCSV(&out)
	var c simCounts
	for _, cell := range res.Cells {
		c.add(cell.Res.Completions, cell.Res.ColdBoots, cell.Res.MigratedOut, cell.Res.Reports)
		for _, row := range cell.Res.Rows {
			c.Evictions += row.Evictions
		}
	}
	for _, p := range res.Grid {
		c.add(p.Res.Completions, p.Res.ColdBoots, p.Res.MigratedOut, p.Res.Reports)
		for _, row := range p.Res.Rows {
			c.Evictions += row.Evictions
		}
	}
	return repResult{outputs: [][]byte{out.Bytes()}, counts: c}, nil
}

func (c *simCounts) add(completions, coldBoots, migrations, reports int64) {
	c.Completions += completions
	c.ColdBoots += coldBoots
	c.Migrations += migrations
	c.Reports += reports
}

func runCharacterize(in input) (repResult, error) {
	r := repResult{
		outputs: make([][]byte, len(characterizeExperiments)),
		spans:   make([]float64, len(characterizeExperiments)),
	}
	for i, name := range characterizeExperiments {
		var out bytes.Buffer
		// Host time per experiment is a benchmark span; no simulated
		// value depends on it.
		start := time.Now() //lint:allow simtime
		if err := experiments.Run(name, &out, experiments.Options{Seed: in.seed, Parallel: in.parallel}); err != nil {
			return repResult{}, err
		}
		r.spans[i] = time.Since(start).Seconds() //lint:allow simtime
		r.outputs[i] = out.Bytes()
	}
	return r, nil
}

// runCalibrate runs the committed calibration, the CI validate
// pipeline, whatever the seed. Another fit seed walks the coordinate
// descent to other parameters whose simulations cost another amount
// (1.37-1.72 s and 99-119 MB per rep over seeds 100-109), and shifting
// only the metamorphic seeds breaks two alloc-halving relations
// (at seeds 200 and 206).
func runCalibrate(in input) (repResult, error) {
	o := calibrate.DefaultOptions()
	o.Parallel = in.parallel
	rep, err := calibrate.Run(o)
	if err != nil {
		return repResult{}, err
	}
	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		return repResult{}, err
	}
	r := repResult{outputs: [][]byte{out.Bytes()}}
	for _, f := range rep.Figures {
		r.relerrMax = math.Max(r.relerrMax, math.Abs(f.RelErr))
	}
	return r, nil
}
