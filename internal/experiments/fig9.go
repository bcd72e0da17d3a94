package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
	"desiccant/internal/workload"
)

// Setup is the platform configuration compared on production traces.
type Setup int

// The three end-to-end setups of §5.3.
const (
	SetupVanilla Setup = iota
	SetupEager
	SetupDesiccant
)

func (s Setup) String() string {
	switch s {
	case SetupVanilla:
		return "vanilla"
	case SetupEager:
		return "eager"
	case SetupDesiccant:
		return "desiccant"
	default:
		return "setup(?)"
	}
}

// AllSetups lists the setups in presentation order.
func AllSetups() []Setup { return []Setup{SetupVanilla, SetupEager, SetupDesiccant} }

// Fig9Options parameterizes the trace experiment.
type Fig9Options struct {
	// Scales are the scale factors swept (the paper uses 5..30).
	Scales []float64
	// Warmup is the length of the fixed warmup phase (60 s at
	// warmupScale in the paper).
	Warmup sim.Duration
	// Replay is the measured window (180 s in the paper).
	Replay sim.Duration
	// CacheBytes is the instance cache (2 GiB in the paper).
	CacheBytes int64
	// Synthetic is the replayed trace: its seed, the population the
	// 20 functions are matched against, and their base rate.
	trace.Synthetic
	// Specs restricts (or replaces) the workload population the trace
	// functions are matched against; nil means the full Table 1 set.
	// The calibration layer substitutes fitted scaled copies here.
	Specs []*workload.Spec
	// ManagerConfig overrides Desiccant's configuration for the
	// SetupDesiccant cells (nil = paper defaults). This is how the
	// ablation benches vary one policy at a time.
	ManagerConfig *core.Config
	// Parallel is the sweep worker count (0 = GOMAXPROCS, 1 = serial).
	Parallel int
}

// DefaultFig9Options mirrors §5.3.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		Scales:     []float64{5, 10, 15, 20, 25, 30},
		Warmup:     60 * sim.Second,
		Replay:     180 * sim.Second,
		CacheBytes: 2 << 30,
		Synthetic:  trace.Synthetic{Seed: 11, Functions: 2000, BaseRate: 2.2},
	}
}

// Fig9Point is one (setup, scale) measurement.
type Fig9Point struct {
	Setup Setup
	Scale float64

	// ColdBootRate is cold boots per completed request (Figure 9a).
	ColdBootRate float64
	// Throughput is completed requests per second (Figure 9b).
	Throughput float64
	// CPUUtilization is busy core time over capacity (Figure 9c).
	CPUUtilization float64
	// ReclaimOverhead is Desiccant's reclamation share of capacity.
	ReclaimOverhead float64

	// Tail latency in milliseconds (Figure 10).
	P50, P90, P95, P99 float64
	Completions        int64
	Requests           int64
	Evictions          int64
}

// Fig9Result holds the full sweep; Figure 10 renders from the same
// points at two chosen scales.
type Fig9Result struct {
	Points []Fig9Point
}

// Point returns the measurement for (setup, scale).
func (r *Fig9Result) Point(s Setup, scale float64) (Fig9Point, bool) {
	for _, p := range r.Points {
		if p.Setup == s && p.Scale == scale {
			return p, true
		}
	}
	return Fig9Point{}, false
}

// RunFig9 executes the sweep: every setup at every scale on the same
// synthetic trace. Each (scale, setup) cell is an independent replay,
// so the cells fan out across the pool and collect in sweep order.
func RunFig9(opts Fig9Options) (*Fig9Result, error) {
	as, err := opts.assignments(opts.Scales...)
	if err != nil {
		return nil, err
	}
	setups := AllSetups()
	points, err := runIndexed(opts.Parallel, len(opts.Scales)*len(setups), func(i int) (Fig9Point, error) {
		return runTraceCell(setups[i%len(setups)], opts.Scales[i/len(setups)], opts, as)
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Points: points}, nil
}

// configs maps a setup onto the platform and manager it runs:
// vanilla has no manager, eager collects at every freeze, and
// Desiccant runs opts.ManagerConfig (nil: the paper defaults).
func (s Setup) configs(opts Fig9Options) (faas.Config, *core.Config) {
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = opts.CacheBytes
	switch s {
	case SetupEager:
		pcfg.Policy = faas.PolicyEager
	case SetupDesiccant:
		mcfg := core.DefaultConfig()
		if opts.ManagerConfig != nil {
			mcfg = *opts.ManagerConfig
		}
		return pcfg, &mcfg
	}
	return pcfg, nil
}

// assignments synthesizes the sweep's trace once for all its cells,
// after checking that it can replay at every given scale and that
// ManagerConfig, when set, is a manager that can run.
func (opts Fig9Options) assignments(scales ...float64) ([]trace.Assignment, error) {
	if err := opts.Synthetic.Validate(opts.Specs, 0, scales...); err != nil {
		return nil, err
	}
	if opts.ManagerConfig != nil {
		if err := opts.ManagerConfig.Validate(); err != nil {
			return nil, err
		}
	}
	return opts.Synthetic.Assignments(opts.Specs, 0), nil
}

// cell is the warmed-up replay of as at scale on the given machine.
func (opts Fig9Options) cell(pcfg faas.Config, mcfg *core.Config, as []trace.Assignment, scale float64) replayCell {
	return replayCell{
		platform:    pcfg,
		manager:     mcfg,
		synthetic:   opts.Synthetic,
		assignments: as,
		warmup:      opts.Warmup,
		window:      opts.Replay,
		scale:       scale,
	}
}

// runTraceCell measures one (setup, scale) cell.
func runTraceCell(setup Setup, scale float64, opts Fig9Options, as []trace.Assignment) (Fig9Point, error) {
	pcfg, mcfg := setup.configs(opts)
	p, err := opts.cell(pcfg, mcfg, as, scale).run()
	if err != nil {
		return Fig9Point{}, err
	}
	st := p.Stats()
	replaySec := opts.Replay.Seconds()
	capacity := pcfg.CPUs * replaySec
	point := Fig9Point{
		Setup:           setup,
		Scale:           scale,
		ColdBootRate:    st.ColdBootRate(),
		Throughput:      float64(st.Completions) / replaySec,
		CPUUtilization:  (st.CPUBusy.Seconds() + st.ReclaimCPU.Seconds()) / capacity,
		ReclaimOverhead: st.ReclaimCPU.Seconds() / capacity,
		Completions:     st.Completions,
		Requests:        st.Requests,
		Evictions:       st.Evictions,
	}
	if st.Latency.Count() > 0 {
		point.P50 = st.Latency.Percentile(50)
		point.P90 = st.Latency.Percentile(90)
		point.P95 = st.Latency.Percentile(95)
		point.P99 = st.Latency.Percentile(99)
	}
	return point, nil
}

// WriteCSV renders Figure 9's three panels.
func (r *Fig9Result) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "setup,scale,cold_boot_rate,throughput_rps,cpu_utilization,reclaim_overhead,completions,requests,evictions")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%s,%.0f,%.4f,%.2f,%.4f,%.4f,%d,%d,%d\n",
			p.Setup, p.Scale, p.ColdBootRate, p.Throughput,
			p.CPUUtilization, p.ReclaimOverhead, p.Completions, p.Requests, p.Evictions)
	}
}

// WriteFig10CSV renders Figure 10's tail-latency panels at the given
// scales (15 and 25 in the paper).
func (r *Fig9Result) WriteFig10CSV(w io.Writer, scales []float64) {
	fmt.Fprintln(w, "setup,scale,p50_ms,p90_ms,p95_ms,p99_ms")
	for _, scale := range scales {
		for _, setup := range AllSetups() {
			p, ok := r.Point(setup, scale)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s,%.0f,%.1f,%.1f,%.1f,%.1f\n",
				setup, scale, p.P50, p.P90, p.P95, p.P99)
		}
	}
}
