package experiments

import (
	"fmt"
	"io"
	"sort"

	"desiccant/internal/cluster"
	"desiccant/internal/core"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
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

func (o Options) single() SingleOptions {
	s := DefaultSingleOptions()
	if o.Quick {
		s.Iterations = 20
	}
	if o.Seed != 0 {
		s.Seed = o.Seed
	}
	s.Parallel = o.Parallel
	return s
}

// Entry describes one registered experiment (the artifact's Table 2).
type Entry struct {
	Name        string
	Figure      string
	Claim       string
	Description string
	// Flags lists the optional desiccant-sim flags the experiment
	// accepts, by name without the dash: "trace", "summary", "metrics",
	// "intensity", "json". The CLI rejects the others.
	Flags []string
	Run   func(w io.Writer, opts Options) error
}

var registry []Entry

// The registry is populated in init to let the table2 entry reference
// the registry itself without an initialization cycle.
func init() {
	registry = []Entry{
		{
			Name: "fig1", Figure: "Figure 1", Claim: "C1",
			Description: "frozen-garbage ratios (avg/max USS over ideal) for all functions",
			Run: func(w io.Writer, opts Options) error {
				res, err := RunFig1(opts.single())
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig2", Figure: "Figure 2", Claim: "C1",
			Description: "memory curves for file-hash and fft: vanilla vs eager vs ideal",
			Run: func(w io.Writer, opts Options) error {
				for _, fn := range []string{"file-hash", "fft"} {
					res, err := RunFig2(fn, opts.single())
					if err != nil {
						return err
					}
					res.WriteCSV(w)
				}
				return nil
			},
		},
		{
			Name: "fig4", Figure: "Figure 4", Claim: "C1",
			Description: "language-average ratios across 256MB/512MB/1GB budgets",
			Run: func(w io.Writer, opts Options) error {
				budgets := DefaultFig4Budgets()
				if opts.Quick {
					budgets = budgets[:2]
				}
				res, err := RunFig4(budgets, opts.single())
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig7", Figure: "Figure 7", Claim: "C1",
			Description: "per-function memory after 100 executions: vanilla/eager/Desiccant/ideal",
			Run: func(w io.Writer, opts Options) error {
				res, err := RunFig7(workload.All(), opts.single())
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig8", Figure: "Figure 8", Claim: "C1",
			Description: "per-instance RSS/PSS improvement vs number of co-located instances (fft)",
			Run: func(w io.Writer, opts Options) error {
				counts := DefaultFig8Counts()
				if opts.Quick {
					counts = []int{1, 2, 4}
				}
				res, err := RunFig8("fft", counts, opts.single())
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig9", Figure: "Figure 9", Claim: "C2",
			Description: "Azure-trace replay: cold-boot rate, throughput, CPU utilization vs scale factor",
			Run: func(w io.Writer, opts Options) error {
				res, err := RunFig9(fig9Options(opts))
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig10", Figure: "Figure 10", Claim: "C2",
			Description: "Azure-trace replay: tail latency at scale factors 15 and 25",
			Run: func(w io.Writer, opts Options) error {
				o := fig9Options(opts)
				scales := []float64{15, 25}
				if opts.Quick {
					scales = []float64{15}
				}
				o.Scales = scales
				res, err := RunFig9(o)
				if err != nil {
					return err
				}
				res.WriteFig10CSV(w, scales)
				return nil
			},
		},
		{
			Name: "fig11", Figure: "Figure 11", Claim: "C1",
			Description: "memory efficiency on the AWS Lambda profile (no library sharing)",
			Run: func(w io.Writer, opts Options) error {
				res, err := RunFig11(opts.single())
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig12", Figure: "Figure 12", Claim: "C1",
			Description: "memory under 256MB/512MB/1GB budgets: language averages plus clock and fft",
			Run: func(w io.Writer, opts Options) error {
				budgets := DefaultFig4Budgets()
				if opts.Quick {
					budgets = budgets[:2]
				}
				res, err := RunFig12(budgets, opts.single())
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "fig13", Figure: "Figure 13", Claim: "C1",
			Description: "post-reclamation execution overhead; swap and weak-reference comparisons",
			Run: func(w io.Writer, opts Options) error {
				o := DefaultFig13Options()
				o.Single = opts.single()
				if opts.Quick {
					o.WarmIterations = 30
					o.MeasureIterations = 5
				}
				res, err := RunFig13(o)
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "ext-g1", Figure: "Extension", Claim: "-",
			Description: "§7 portability: Java functions on a G1-style region heap, vanilla vs Desiccant",
			Run: func(w io.Writer, opts Options) error {
				o := opts.single()
				o.RuntimeName = "g1"
				var specs []*workload.Spec
				for _, s := range workload.ByLanguage(runtime.Java) {
					specs = append(specs, s)
				}
				res, err := RunFig7(specs, o)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, "# Java workloads on the G1-style region heap")
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "ext-python", Figure: "Extension", Claim: "-",
			Description: "§7 portability: the Python suite on the CPython-style arena runtime",
			Run: func(w io.Writer, opts Options) error {
				res, err := RunFig7(workload.Extras(), opts.single())
				if err != nil {
					return err
				}
				fmt.Fprintln(w, "# Python extension workloads on the pyarena runtime")
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "ext-snapstart", Figure: "Extension", Claim: "-",
			Description: "instance caching (vanilla/Desiccant) vs a SnapStart-style snapshot platform",
			Run: func(w io.Writer, opts Options) error {
				o := fig9Options(opts)
				scale := 25.0
				if opts.Quick {
					scale = 15
				}
				res, err := RunSnapStart(o, scale)
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "ext-prewarm", Figure: "Extension", Claim: "-",
			Description: "§6.1 orthogonality: stem-cell pre-warming composed with Desiccant (2x2 grid)",
			Run: func(w io.Writer, opts Options) error {
				o := fig9Options(opts)
				scale := 25.0
				if opts.Quick {
					scale = 15
				}
				res, err := RunPrewarm(o, scale)
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "ext-idle", Figure: "Extension", Claim: "-",
			Description: "§4.2 future-work policy: activate reclamation on idle CPU, vs the dynamic threshold alone",
			Run: func(w io.Writer, opts Options) error {
				o := fig9Options(opts)
				idle := core.DefaultConfig()
				idle.ActivateOnIdleCPU = 4
				as, err := o.assignments(15)
				if err != nil {
					return err
				}
				// Only the two Desiccant cells differ; fan them out.
				points, err := runIndexed(opts.Parallel, 2, func(i int) (Fig9Point, error) {
					o := o
					if i == 1 {
						o.ManagerConfig = &idle
					}
					return runTraceCell(SetupDesiccant, 15, o, as), nil
				})
				if err != nil {
					return err
				}
				fmt.Fprintln(w, "policy,cold_boot_rate,reclaim_overhead,evictions")
				for i, policy := range []string{"threshold-only", "idle-cpu"} {
					p := points[i]
					fmt.Fprintf(w, "%s,%.4f,%.4f,%d\n", policy, p.ColdBootRate, p.ReclaimOverhead, p.Evictions)
				}
				return nil
			},
		},
		{
			Name: "ext-fleet", Figure: "Extension", Claim: "-",
			Description: "multi-machine replay of the pinned cluster: router + N platforms on one engine",
			Run: func(w io.Writer, opts Options) error {
				res, err := cluster.Run(fleetOptions(opts))
				if err != nil {
					return err
				}
				writeFleetCSV(w, res)
				return res.CheckConsistency()
			},
		},
		{
			Name: "ext-attr", Figure: "Extension", Claim: "-",
			Description: "per-invocation causal attribution: manager modes on the pinned fleet, exact phase tiling, byte-identical at any -parallel",
			Flags:       []string{"trace", "summary"},
			Run: func(w io.Writer, opts Options) error {
				o := attrOptions(opts)
				res, err := RunAttr(o)
				if err != nil {
					return err
				}
				if opts.Trace != nil {
					mode := o.Modes[len(o.Modes)-1]
					if err := res.WritePerfetto(opts.Trace, mode); err != nil {
						return err
					}
				}
				if opts.Summary {
					return res.WriteSummary(w)
				}
				return res.WriteCSV(w)
			},
		},
		{
			Name: "ext-cluster", Figure: "Extension", Claim: "-",
			Description: "fleet sweep: placement policy x manager mode over the cluster subsystem, plus a nodes x RAM capacity curve; byte-identical at any -parallel",
			Run: func(w io.Writer, opts Options) error {
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
				if opts.Seed != 0 {
					o.Seed = opts.Seed
				}
				o.Parallel = opts.Parallel
				res, err := RunClusterSweep(o)
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				return nil
			},
		},
		{
			Name: "chaos", Figure: "Robustness", Claim: "-",
			Description: "fault-injection sweep: manager modes x intensities, with cross-layer invariant checking",
			Flags:       []string{"intensity"},
			Run: func(w io.Writer, opts Options) error {
				o := DefaultChaosOptions()
				if opts.Quick {
					o.Window = 20 * sim.Second
					o.Requests = 100
				}
				if opts.Seed != 0 {
					o.Seed = opts.Seed
				}
				if opts.Intensity > 0 {
					o.Intensities = []float64{opts.Intensity}
				}
				o.Parallel = opts.Parallel
				res, err := RunChaos(o)
				if err != nil {
					return err
				}
				res.WriteCSV(w)
				if v := res.FirstViolation(); v != "" {
					return fmt.Errorf("invariant violation under faults: %s", v)
				}
				return nil
			},
		},
		{
			Name: "observe", Figure: "Observability", Claim: "-",
			Description: "instrumented Desiccant trace replay; supports -trace/-metrics/-summary exports",
			Flags:       []string{"trace", "metrics", "summary"},
			Run: func(w io.Writer, opts Options) error {
				o := observeOptions(opts)
				o.Metrics = opts.Metrics
				if opts.Summary {
					o.Summary = w
				} else {
					o.Snapshot = w
				}
				return RunObserve(o)
			},
		},
		{
			Name: "trace", Figure: "Observability", Claim: "-",
			Description: "per-invocation causal attribution of one Desiccant trace replay; supports -trace/-summary exports",
			Flags:       []string{"trace", "summary"},
			Run: func(w io.Writer, opts Options) error {
				o := observeOptions(opts)
				if opts.Summary {
					o.Summary = w
				} else {
					o.CSV = w
				}
				return RunAttrTrace(o)
			},
		},
		{
			Name: "validate", Figure: "Claims", Claim: "C1+C2",
			Description: "artifact-style claim check: measure and verdict every sub-claim",
			Run: func(w io.Writer, opts Options) error {
				res, err := RunValidation(opts)
				if err != nil {
					return err
				}
				res.WriteText(w)
				if !res.AllPassed() {
					return fmt.Errorf("validation failed")
				}
				return nil
			},
		},
		{
			Name: "table1", Figure: "Table 1", Claim: "-",
			Description: "the evaluated FaaS function inventory",
			Run: func(w io.Writer, _ Options) error {
				WriteTable1(w)
				return nil
			},
		},
		{
			Name: "table2", Figure: "Table 2", Claim: "-",
			Description: "experiment-to-figure-to-claim mapping",
			Run: func(w io.Writer, _ Options) error {
				WriteTable2(w)
				return nil
			},
		},
	}
}

func fig9Options(opts Options) Fig9Options {
	o := DefaultFig9Options()
	if opts.Quick {
		o.Scales = []float64{5, 15, 25}
		o.Shrink()
	}
	if opts.Seed != 0 {
		o.Seed = opts.Seed
	}
	o.Parallel = opts.Parallel
	return o
}

// Register adds an experiment defined outside this package to the
// registry (internal/calibrate self-registers from its init to avoid
// an import cycle — it drives the harnesses here, so it cannot be
// registered from this package's init). Duplicate names panic.
func Register(e Entry) {
	for _, ex := range registry {
		if ex.Name == e.Name {
			panic("experiments: duplicate experiment " + e.Name)
		}
	}
	registry = append(registry, e)
}

// List returns the registered experiments sorted by name.
func List() []Entry {
	out := make([]Entry, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment, writing its CSV to w.
func Run(name string, w io.Writer, opts Options) error {
	for _, e := range registry {
		if e.Name == name {
			return e.Run(w, opts)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", name)
}

// WriteTable1 renders the paper's Table 1 from the workload registry.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "language,function,description")
	for _, s := range workload.All() {
		fmt.Fprintf(w, "%s,%s,%s\n", s.Language, s.TableName(), s.Description)
	}
}

// WriteTable2 renders the artifact's experiment mapping.
func WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "experiment,figure,claim,description")
	for _, e := range List() {
		fmt.Fprintf(w, "%s,%s,%s,%s\n", e.Name, e.Figure, e.Claim, e.Description)
	}
}
