package experiments

import (
	"fmt"
	"io"
	"sort"

	"desiccant/internal/cluster"
	"desiccant/internal/runtime"
	"desiccant/internal/workload"
)

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
	// Resolve turns Options into the experiment's own options value,
	// the one place its Quick, Seed, Parallel and Intensity are read.
	// It is nil for an experiment that ignores all four (table1,
	// table2).
	Resolve func(Options) any
	Run     func(w io.Writer, opts Options) error
}

// NewEntry completes e with its resolver and its run step. Run resolves
// opts exactly once and hands the value to run, which runs the
// experiment, wires the output writers opts carries and renders the
// result.
func NewEntry[T any](e Entry, resolve func(Options) T, run func(w io.Writer, o T, opts Options) error) Entry {
	e.Resolve = func(opts Options) any { return resolve(opts) }
	e.Run = func(w io.Writer, opts Options) error { return run(w, resolve(opts), opts) }
	return e
}

// csvEntry is NewEntry for an experiment whose result renders itself
// as CSV.
func csvEntry[T any, R interface{ WriteCSV(io.Writer) }](e Entry, resolve func(Options) T, run func(T) (R, error)) Entry {
	return NewEntry(e, resolve, func(w io.Writer, o T, _ Options) error {
		res, err := run(o)
		if err != nil {
			return err
		}
		res.WriteCSV(w)
		return nil
	})
}

var registry []Entry

// The registry is populated in init to let the table2 entry reference
// the registry itself without an initialization cycle.
func init() {
	registry = []Entry{
		csvEntry(Entry{Name: "fig1", Figure: "Figure 1", Claim: "C1",
			Description: "frozen-garbage ratios (avg/max USS over ideal) for all functions",
		}, singleOptions, RunFig1),
		NewEntry(Entry{Name: "fig2", Figure: "Figure 2", Claim: "C1",
			Description: "memory curves for file-hash and fft: vanilla vs eager vs ideal",
		}, singleOptions, func(w io.Writer, o SingleOptions, _ Options) error {
			for _, fn := range []string{"file-hash", "fft"} {
				res, err := RunFig2(fn, o)
				if err != nil {
					return err
				}
				res.WriteCSV(w)
			}
			return nil
		}),
		csvEntry(Entry{Name: "fig4", Figure: "Figure 4", Claim: "C1",
			Description: "language-average ratios across 256MB/512MB/1GB budgets",
		}, budgetOptions, func(b budgetSweep) (*Fig4Result, error) { return RunFig4(b.Budgets, b.Single) }),
		csvEntry(Entry{Name: "fig7", Figure: "Figure 7", Claim: "C1",
			Description: "per-function memory after 100 executions: vanilla/eager/Desiccant/ideal",
		}, singleOptions, func(o SingleOptions) (*Fig7Result, error) { return RunFig7(workload.All(), o) }),
		csvEntry(Entry{Name: "fig8", Figure: "Figure 8", Claim: "C1",
			Description: "per-instance RSS/PSS improvement vs number of co-located instances (fft)",
		}, ResolveFig8, func(o Fig8Options) (*Fig8Result, error) { return RunFig8("fft", o.Counts, o.Single) }),
		csvEntry(Entry{Name: "fig9", Figure: "Figure 9", Claim: "C2",
			Description: "Azure-trace replay: cold-boot rate, throughput, CPU utilization vs scale factor",
		}, ResolveFig9, RunFig9),
		NewEntry(Entry{Name: "fig10", Figure: "Figure 10", Claim: "C2",
			Description: "Azure-trace replay: tail latency at scale factors 15 and 25",
		}, fig10Options, func(w io.Writer, o Fig9Options, _ Options) error {
			res, err := RunFig9(o)
			if err != nil {
				return err
			}
			res.WriteFig10CSV(w, o.Scales)
			return nil
		}),
		csvEntry(Entry{Name: "fig11", Figure: "Figure 11", Claim: "C1",
			Description: "memory efficiency on the AWS Lambda profile (no library sharing)",
		}, singleOptions, RunFig11),
		csvEntry(Entry{Name: "fig12", Figure: "Figure 12", Claim: "C1",
			Description: "memory under 256MB/512MB/1GB budgets: language averages plus clock and fft",
		}, budgetOptions, func(b budgetSweep) (*Fig12Result, error) { return RunFig12(b.Budgets, b.Single) }),
		csvEntry(Entry{Name: "fig13", Figure: "Figure 13", Claim: "C1",
			Description: "post-reclamation execution overhead; swap and weak-reference comparisons",
		}, fig13Options, RunFig13),
		NewEntry(Entry{Name: "ext-g1", Figure: "Extension", Claim: "-",
			Description: "§7 portability: Java functions on a G1-style region heap, vanilla vs Desiccant",
		}, g1Options, func(w io.Writer, o SingleOptions, _ Options) error {
			res, err := RunFig7(workload.ByLanguage(runtime.Java), o)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "# Java workloads on the G1-style region heap")
			res.WriteCSV(w)
			return nil
		}),
		NewEntry(Entry{Name: "ext-python", Figure: "Extension", Claim: "-",
			Description: "§7 portability: the Python suite on the CPython-style arena runtime",
		}, singleOptions, func(w io.Writer, o SingleOptions, _ Options) error {
			res, err := RunFig7(workload.Extras(), o)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "# Python extension workloads on the pyarena runtime")
			res.WriteCSV(w)
			return nil
		}),
		csvEntry(Entry{Name: "ext-snapstart", Figure: "Extension", Claim: "-",
			Description: "instance caching (vanilla/Desiccant) vs a SnapStart-style snapshot platform",
		}, tailScaleOptions, func(o Fig9Options) (*SnapStartResult, error) { return RunSnapStart(o, o.Scales[0]) }),
		csvEntry(Entry{Name: "ext-prewarm", Figure: "Extension", Claim: "-",
			Description: "§6.1 orthogonality: stem-cell pre-warming composed with Desiccant (2x2 grid)",
		}, tailScaleOptions, func(o Fig9Options) (*PrewarmResult, error) { return RunPrewarm(o, o.Scales[0]) }),
		csvEntry(Entry{Name: "ext-idle", Figure: "Extension", Claim: "-",
			Description: "§4.2 future-work policy: activate reclamation on idle CPU, vs the dynamic threshold alone",
		}, claimScaleOptions, runIdle),
		NewEntry(Entry{Name: "ext-fleet", Figure: "Extension", Claim: "-",
			Description: "multi-machine replay of the pinned cluster: router + N platforms on one engine",
		}, fleetOptions, func(w io.Writer, o cluster.Options, _ Options) error {
			res, err := cluster.Run(o)
			if err != nil {
				return err
			}
			writeFleetCSV(w, res)
			return res.CheckConsistency()
		}),
		NewEntry(Entry{Name: "ext-attr", Figure: "Extension", Claim: "-",
			Description: "per-invocation causal attribution: manager modes on the pinned fleet, exact phase tiling, byte-identical at any -parallel",
			Flags:       []string{"trace", "summary"},
		}, attrOptions, func(w io.Writer, o AttrOptions, opts Options) error {
			res, err := RunAttr(o)
			if err != nil {
				return err
			}
			if opts.Trace != nil {
				if err := res.WritePerfetto(opts.Trace, o.Modes[len(o.Modes)-1]); err != nil {
					return err
				}
			}
			if opts.Summary {
				return res.WriteSummary(w)
			}
			return res.WriteCSV(w)
		}),
		csvEntry(Entry{Name: "ext-cluster", Figure: "Extension", Claim: "-",
			Description: "fleet sweep: placement policy x manager mode over the cluster subsystem, plus a nodes x RAM capacity curve; byte-identical at any -parallel",
		}, clusterSweepOptions, RunClusterSweep),
		NewEntry(Entry{Name: "chaos", Figure: "Robustness", Claim: "-",
			Description: "fault-injection sweep: manager modes x intensities, with cross-layer invariant checking",
			Flags:       []string{"intensity"},
		}, chaosOptions, func(w io.Writer, o ChaosOptions, _ Options) error {
			res, err := RunChaos(o)
			if err != nil {
				return err
			}
			res.WriteCSV(w)
			if v := res.FirstViolation(); v != "" {
				return fmt.Errorf("invariant violation under faults: %s", v)
			}
			return nil
		}),
		NewEntry(Entry{Name: "observe", Figure: "Observability", Claim: "-",
			Description: "instrumented Desiccant trace replay; supports -trace/-metrics/-summary exports",
			Flags:       []string{"trace", "metrics", "summary"},
		}, observeOptions, func(w io.Writer, o ObserveOptions, opts Options) error {
			out := ObserveOutputs{Trace: opts.Trace, Metrics: opts.Metrics, Snapshot: w}
			if opts.Summary {
				out.Summary, out.Snapshot = w, nil
			}
			return RunObserve(o, out)
		}),
		NewEntry(Entry{Name: "trace", Figure: "Observability", Claim: "-",
			Description: "per-invocation causal attribution of one Desiccant trace replay; supports -trace/-summary exports",
			Flags:       []string{"trace", "summary"},
		}, observeOptions, func(w io.Writer, o ObserveOptions, opts Options) error {
			out := ObserveOutputs{Trace: opts.Trace, CSV: w}
			if opts.Summary {
				out.Summary, out.CSV = w, nil
			}
			return RunAttrTrace(o, out)
		}),
		NewEntry(Entry{Name: "validate", Figure: "Claims", Claim: "C1+C2",
			Description: "artifact-style claim check: measure and verdict every sub-claim",
		}, validationOptions, func(w io.Writer, o ValidationOptions, _ Options) error {
			res, err := RunValidation(o)
			if err != nil {
				return err
			}
			res.WriteText(w)
			if !res.AllPassed() {
				return fmt.Errorf("validation failed")
			}
			return nil
		}),
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

// Run executes the named experiment, writing its CSV to w. Options
// that fail Validate run nothing.
func Run(name string, w io.Writer, opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
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
