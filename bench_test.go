package desiccant

// Benchmarks that no other harness covers: the DESIGN.md §6 ablations,
// which report each design choice's headline quantity via
// b.ReportMetric, plus micro-benches for the Table 1 workload suite,
// trace generation, the public facade and the §7 G1 and CPython
// extensions. The figures themselves are timed end to end by bench/
// (`bash bench/run.sh`) and pinned by the experiments tests; their
// full-size CSVs come from `go run ./cmd/desiccant-sim <figN>`.

import (
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/experiments"
	"desiccant/internal/g1gc"
	"desiccant/internal/osmem"
	"desiccant/internal/pyarena"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
	"desiccant/internal/workload"
)

// benchSingleOpts returns iteration-reduced single-function options so
// a bench iteration stays in the tens of milliseconds.
func benchSingleOpts() experiments.SingleOptions {
	o := experiments.DefaultSingleOptions()
	o.Iterations = 30
	return o
}

// benchTraceOpts returns the quick trace experiment at the given
// scales.
func benchTraceOpts(scales ...float64) experiments.Fig9Options {
	o := experiments.ResolveFig9(experiments.Options{Quick: true})
	o.Scales = scales
	return o
}

// BenchmarkTable1WorkloadSuite runs one invocation of every Table 1
// function, the unit of work everything else multiplies.
func BenchmarkTable1WorkloadSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range workload.All() {
			opts := benchSingleOpts()
			opts.Iterations = 1
			if _, err := experiments.RunSingle(spec, experiments.Vanilla, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationThresholdDynamicVsStatic compares the paper's
// dynamic activation threshold with a static one.
func BenchmarkAblationThresholdDynamicVsStatic(b *testing.B) {
	run := func(static bool) (float64, sim.Duration) {
		o := benchTraceOpts(25)
		mcfg := core.DefaultConfig()
		if static {
			mcfg.LowThreshold = 0.60
			mcfg.HighThreshold = 0.60
		}
		o.ManagerConfig = &mcfg
		res, err := experiments.RunFig9(o)
		if err != nil {
			b.Fatal(err)
		}
		d, _ := res.Point(experiments.SetupDesiccant, 25)
		return d.ColdBootRate, sim.Duration(d.ReclaimOverhead * float64(60*sim.Second))
	}
	var dynRate, statRate float64
	for i := 0; i < b.N; i++ {
		dynRate, _ = run(false)
		statRate, _ = run(true)
	}
	b.ReportMetric(dynRate, "dynamic_coldboot_rate")
	b.ReportMetric(statRate, "static_coldboot_rate")
}

// BenchmarkAblationSelectionPolicy compares throughput-ordered
// selection (§4.5.2) against LRU and random.
func BenchmarkAblationSelectionPolicy(b *testing.B) {
	run := func(policy core.SelectionPolicy) float64 {
		o := benchTraceOpts(25)
		mcfg := core.DefaultConfig()
		mcfg.Selection = policy
		o.ManagerConfig = &mcfg
		res, err := experiments.RunFig9(o)
		if err != nil {
			b.Fatal(err)
		}
		d, _ := res.Point(experiments.SetupDesiccant, 25)
		return d.ColdBootRate
	}
	var byThroughput, byLRU, byRandom float64
	for i := 0; i < b.N; i++ {
		byThroughput = run(core.SelectByThroughput)
		byLRU = run(core.SelectLRU)
		byRandom = run(core.SelectRandom)
	}
	b.ReportMetric(byThroughput, "throughput_coldboot_rate")
	b.ReportMetric(byLRU, "lru_coldboot_rate")
	b.ReportMetric(byRandom, "random_coldboot_rate")
}

// BenchmarkAblationWeakRefs compares weak-preserving reclamation
// (§4.7) against aggressive collection on the two functions the paper
// calls out (data-analysis 2.14×, unionfind 1.74×).
func BenchmarkAblationWeakRefs(b *testing.B) {
	var gentle, aggressive float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(experiments.Fig13Options{
			Single: experiments.DefaultSingleOptions(), WarmIterations: 40, MeasureIterations: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Function == "data-analysis (6)" {
				gentle = row.AfterDesiccant.Millis()
				aggressive = row.AfterAggressive.Millis()
			}
		}
	}
	b.ReportMetric(gentle, "weakpreserve_ms")
	b.ReportMetric(aggressive, "aggressive_ms")
	if gentle > 0 {
		b.ReportMetric(aggressive/gentle, "slowdown_x")
	}
}

// BenchmarkAblationUnmap compares the §4.6 shared-library unmap
// optimization on and off (single instance, Lambda profile where it
// matters most).
func BenchmarkAblationUnmap(b *testing.B) {
	run := func(unmap bool) float64 {
		opts := benchSingleOpts()
		opts.ShareLibraries = false
		opts.UnmapLibraries = unmap
		spec, _ := workload.Lookup("fft")
		res, err := experiments.RunSingle(spec, experiments.Desiccant, opts)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.FinalUSS()) / (1 << 20)
	}
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = run(true)
		off = run(false)
	}
	b.ReportMetric(on, "unmap_on_uss_mb")
	b.ReportMetric(off, "unmap_off_uss_mb")
}

// BenchmarkTraceGeneration measures the synthetic Azure trace
// generator (the substrate behind Figures 9/10).
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := trace.Generate(trace.GenConfig{Seed: uint64(i + 1), Functions: 2000})
		as := trace.Match(tr, workload.All())
		trace.NormalizeRate(as, 2.2)
		if len(as) != 20 {
			b.Fatal("match failed")
		}
	}
}

// BenchmarkFacadeEndToEnd measures the public-API path end to end.
func BenchmarkFacadeEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewSimulation(Config{EnableDesiccant: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReplayTrace(uint64(i+1), 2.0, 0, Time(Seconds(20)), 10); err != nil {
			b.Fatal(err)
		}
		s.RunUntil(Time(Seconds(30)))
		s.Close()
		if s.Platform.Stats().Completions == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkG1Reclaim exercises the §7 G1 extension: a churn-heavy
// workload on a region-based heap, then Desiccant's reclaim.
func BenchmarkG1Reclaim(b *testing.B) {
	var releasedMB, residentMB float64
	for i := 0; i < b.N; i++ {
		m := osmem.NewMachine()
		h, err := g1gc.New(runtime.Config{AddressSpace: m.NewAddressSpace("g1"), MemoryBudget: 256 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			o, err := h.Allocate(64<<10, runtime.AllocOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if j%8 != 0 {
				h.Objects().At(o).Dead = true
			}
		}
		rep := h.Reclaim(false)
		releasedMB = float64(rep.ReleasedBytes) / (1 << 20)
		residentMB = float64(h.ResidentBytes()) / (1 << 20)
	}
	b.ReportMetric(releasedMB, "released_mb")
	b.ReportMetric(residentMB, "resident_after_mb")
}

// BenchmarkPyArenaReclaim exercises the §7 CPython extension: pinned
// arenas whose free pages only Desiccant's reclaim can release.
func BenchmarkPyArenaReclaim(b *testing.B) {
	var releasedMB float64
	for i := 0; i < b.N; i++ {
		m := osmem.NewMachine()
		h, err := pyarena.New(runtime.Config{AddressSpace: m.NewAddressSpace("py"), MemoryBudget: 256 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4000; j++ {
			o, err := h.Allocate(12<<10, runtime.AllocOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if j%20 != 0 {
				h.Objects().At(o).Dead = true
			}
		}
		rep := h.Reclaim(false)
		releasedMB = float64(rep.ReleasedBytes) / (1 << 20)
	}
	b.ReportMetric(releasedMB, "released_mb")
}
