package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// setups is the number of child processes per workload run. Each one
// pays set-up once, so setup_s is a median of this many.
const setups = 3

// runRecord is everything one benchmark run measured.
type runRecord struct {
	Schema    string           `json:"schema"`
	GoVersion string           `json:"go_version"`
	Revision  string           `json:"revision"`
	NProc     int              `json:"nproc"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name         string          `json:"name"`
	Seed         uint64          `json:"seed"`
	Reference    bool            `json:"reference_inputs"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Failures     []string        `json:"failures,omitempty"`
	OutputSHA256 string          `json:"output_sha256"`
	Metrics      []metricSamples `json:"metrics"`
}

// metricSamples holds every sample of one metric: one per child for
// setup_s, one per rep otherwise.
type metricSamples struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

func newRecord(seconds float64) *runRecord {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var modified bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			rev += "-dirty"
		}
	}
	return &runRecord{
		Schema: "desiccant-benchrun-v1", GoVersion: runtime.Version(), Revision: rev,
		NProc: runtime.NumCPU(), Seconds: seconds,
	}
}

// runWorkload runs one workload in setups fresh child processes, one
// after another. Children share the timed budget, and GOMAXPROCS is
// pinned to the CPU count because Go before 1.25 ignores container
// CPU quotas.
func runWorkload(ctx context.Context, w *workload, seed uint64, seconds float64, trace string) (*workloadRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reports []childReport
	var used float64
	reps := 0
	for i := 0; i < setups; i++ {
		budget := seconds*float64(i+1)/setups - used
		cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
			"-seed", strconv.FormatUint(seed, 10), "-trace", trace,
			"-budget", strconv.FormatFloat(budget, 'f', -1, 64), "-first", strconv.Itoa(reps),
			// The child's set-up time starts now, on the host clock.
			"-t0", strconv.FormatInt(time.Now().UnixNano(), 10)) //lint:allow simtime
		// The child inherits the environment with the scheduler and GC
		// settings pinned.
		cmd.Env = append(os.Environ(), //lint:allow simtime
			"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()), "GOGC=100")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child %d: %w", i, err)
		}
		var rpt childReport
		if err := json.Unmarshal(out, &rpt); err != nil {
			return nil, fmt.Errorf("child %d report: %w", i, err)
		}
		for _, r := range rpt.Reps {
			used += r.WallS
		}
		reps += len(rpt.Reps)
		reports = append(reports, rpt)
	}
	wr := &workloadRecord{Name: w.name, Seed: seed, Reference: w.reference(seed), OutputSHA256: reports[0].OutputSHA256}
	for i, r := range reports {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Failures = append(wr.Failures, r.Failures...)
		if r.OutputSHA256 != wr.OutputSHA256 {
			wr.Failed++
			wr.Failures = append(wr.Failures, fmt.Sprintf("child %d: warm-up output sha256 %s, child 0 had %s", i, r.OutputSHA256, wr.OutputSHA256))
		}
	}
	wr.Metrics = deriveMetrics(reports)
	return wr, nil
}

// layerNames are the layers the per-layer metrics report.
var layerNames = []string{
	"experiments", "calibrate", "cluster", "faas", "container", "core", "sim", "osmem", "mm",
	"hotspot", "v8heap", "g1gc", "pyarena", "workload", "runtime", "trace", "metrics", "obs", "go", "bench",
}

// probeRefMS is the host probe's usual reading on the capture host, a
// shared 2-core x86-64 container that drifts between faster and slower
// phases. Host times are reported scaled to the speed at which the
// probe reads probeRefMS: a time measured right after a probe reading p
// is multiplied by probeRefMS/p. Over ten runs at ten seeds this cut
// the spread of cluster's median wall_s from 14% to 8%, and
// characterize's from 13% to 5%. The record keeps the raw times too.
const probeRefMS = 7.0

// deriveMetrics turns child reports into named samples. End-to-end
// metrics and counts come from unprofiled reps, layer CPU from
// profiled ones.
func deriveMetrics(reports []childReport) []metricSamples {
	var ms []metricSamples
	idx := map[string]int{}
	add := func(name, unit string, v float64) {
		i, ok := idx[name]
		if !ok {
			i = len(ms)
			idx[name] = i
			ms = append(ms, metricSamples{Name: name, Unit: unit})
		}
		ms[i].Samples = append(ms[i].Samples, v)
	}
	procs := float64(runtime.NumCPU())
	var tracedWall, plainWall []float64
	for _, r := range reports {
		// The child's first probe runs right after its set-up.
		add("setup_s", "s", r.SetupS*probeRefMS/r.Reps[0].ProbeMS)
		add("bench.raw_setup_s", "s", r.SetupS)
	}
	for _, r := range reports {
		for _, s := range r.Reps {
			add("bench.probe_ms", "ms", s.ProbeMS)
			k := probeRefMS / s.ProbeMS
			if s.Layers != nil {
				tracedWall = append(tracedWall, k*s.WallS)
				perRepLayers(s.Layers, k, add)
				continue
			}
			plainWall = append(plainWall, k*s.WallS)
			add("wall_s", "s/rep", k*s.WallS)
			add("cpu_s", "CPU-s/rep", k*s.CPUS)
			add("peak_rss_mb", "MB", s.PeakRSSMB)
			add("bench.raw_wall_s", "s/rep", s.WallS)
			add("bench.raw_cpu_s", "CPU-s/rep", s.CPUS)
			add("go.gc_cpu_s", "CPU-s/rep", k*s.GCCPUS)
			add("go.alloc_mb", "MB/rep", s.AllocMB)
			add("go.alloc_objects", "count/rep", s.AllocObjects)
			add("go.gc_cycles", "count/rep", s.GCCycles)
			add("experiments.cpu_util", "ratio", s.CPUS/(s.WallS*procs))
			add("faas.completions", "count/rep", float64(s.Counts.Completions))
			add("faas.cold_boots", "count/rep", float64(s.Counts.ColdBoots))
			add("faas.evictions", "count/rep", float64(s.Counts.Evictions))
			add("faas.invocations_per_s", "1/s", float64(s.Counts.Completions)/(k*s.WallS))
			add("cluster.migrations", "count/rep", float64(s.Counts.Migrations))
			add("cluster.reports", "count/rep", float64(s.Counts.Reports))
			add("calibrate.heldout_relerr_max", "ratio", s.RelerrMax)
			for i, name := range characterizeExperiments {
				var v float64
				if i < len(s.Spans) {
					v = k * s.Spans[i]
				}
				add("span."+name+"_s", "s/rep", v)
			}
		}
	}
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		add("bench.tracing_overhead_frac", "ratio", summarize(tracedWall).Median/summarize(plainWall).Median-1)
	}
	return ms
}

// perRepLayers adds one profiled rep's layer CPU, scaled by k.
func perRepLayers(l *layerCPU, k float64, add func(name, unit string, v float64)) {
	for _, name := range layerNames {
		add(name+".self_cpu_s", "CPU-s/rep", k*l.Self[name])
		add(name+".cum_cpu_s", "CPU-s/rep", k*l.Cum[name])
	}
	add("osmem.read_cpu_s", "CPU-s/rep", k*l.OsmemRead)
	add("osmem.write_cpu_s", "CPU-s/rep", k*l.OsmemWrite)
	add("calibrate.fit_cpu_s", "CPU-s/rep", k*l.Fit)
	add("calibrate.metamorphic_cpu_s", "CPU-s/rep", k*l.Metamorphic)
	add("bench.profiled_cpu_s", "CPU-s/rep", k*l.Total)
}

// resultLine is the one-line JSON verdict that ends a workload's
// output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a workload's table, then its one-line JSON result with
// BENCHMARK.json's end-to-end metrics, or per-layer ones when traced.
func report(w io.Writer, bm *benchmarkFile, wr *workloadRecord, traced bool) error {
	fmt.Fprintf(w, "# workload %s  seed %d  reference inputs %v  failed %d/%d  output_sha256 %s\n",
		wr.Name, wr.Seed, wr.Reference, wr.Failed, wr.Attempted, wr.OutputSHA256)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "#   FAIL %s\n", f)
	}
	fmt.Fprintf(w, "%-34s %-10s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range wr.Metrics {
		s := summarize(m.Samples)
		fmt.Fprintf(w, "%-34s %-10s %12.6g %12.6g %12.6g %4d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	specs := bm.EndToEnd
	if traced {
		specs = bm.PerLayer
	}
	res := resultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	for _, spec := range specs {
		m := wr.metric(spec.Name)
		if m == nil {
			return fmt.Errorf("%s: no samples of metric %s", wr.Name, spec.Name)
		}
		res.Metrics[spec.Name] = metricValue{Value: summarize(m.Samples).Median, Unit: spec.Unit}
	}
	return json.NewEncoder(w).Encode(res)
}

func (wr *workloadRecord) metric(name string) *metricSamples {
	for i := range wr.Metrics {
		if wr.Metrics[i].Name == name {
			return &wr.Metrics[i]
		}
	}
	return nil
}

func readRecord(path string) (*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec runRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}
