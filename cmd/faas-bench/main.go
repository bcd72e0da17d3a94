// Command faas-bench drives the simulated FaaS platform with an ad-hoc
// load: a chosen function (or all of them round-robin) at a fixed
// request rate, with any of the memory-management setups. It prints a
// one-line summary plus optional per-second cache occupancy, and is
// the quickest way to watch Desiccant's effect interactively. It builds
// on the public desiccant facade and answers what a trace replay
// (desiccant-sim observe) cannot: a fixed-rate load of one named
// function, the swap baseline, and a chosen CPU count and cache size.
//
// Usage:
//
//	faas-bench [-fn fft] [-rate 20] [-duration 60] [-setup desiccant]
//	           [-cache 2048] [-cpus 20] [-trace]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"desiccant"
)

func main() {
	fn := flag.String("fn", "", "function name (empty = all Table 1 functions round-robin)")
	rate := flag.Float64("rate", 20, "request rate (req/s)")
	durationSec := flag.Float64("duration", 60, "run length in simulated seconds")
	setup := flag.String("setup", "desiccant", "vanilla | eager | desiccant | swap")
	cacheMB := flag.Int64("cache", 2048, "instance cache size (MiB)")
	cpus := flag.Float64("cpus", 20, "CPU cores for function execution")
	trace := flag.Bool("trace", false, "print per-second cache occupancy")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	if err := run(os.Stdout, *fn, *rate, *durationSec, *setup, *cacheMB, *cpus, *trace, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "faas-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fn string, rate, durationSec float64, setup string, cacheMB int64, cpus float64, traceCache bool, seed uint64) error {
	gap := desiccant.Seconds(1 / rate)
	if !(rate > 0) || gap <= 0 {
		return fmt.Errorf("rate must be positive with a gap of at least 1µs, got %v req/s", rate)
	}
	end := desiccant.Time(desiccant.Seconds(durationSec))
	if !(durationSec > 0) || end <= 0 {
		return fmt.Errorf("duration must be positive and finite, got %v s", durationSec)
	}

	cfg := desiccant.DefaultPlatformConfig()
	cfg.Seed = seed
	cfg.CacheBytes = cacheMB << 20
	cfg.CPUs = cpus
	var mgrCfg *desiccant.ManagerConfig
	switch setup {
	case "vanilla":
	case "eager":
		cfg.Policy = desiccant.PolicyEager
	case "desiccant", "swap":
		c := desiccant.DefaultManagerConfig()
		if setup == "swap" {
			c.Mode = desiccant.ModeSwap
		}
		mgrCfg = &c
	default:
		return fmt.Errorf("unknown setup %q", setup)
	}
	s, err := desiccant.NewSimulation(desiccant.Config{Platform: &cfg, Manager: mgrCfg})
	if err != nil {
		return err
	}
	p, mgr := s.Platform, s.Manager

	specs := desiccant.Functions()
	if fn != "" {
		spec, err := desiccant.LookupFunction(fn)
		if err != nil {
			return err
		}
		specs = []*desiccant.FunctionSpec{spec}
	}

	i := 0
	for t := desiccant.Time(0); t < end; t = t.Add(gap) {
		p.Submit(specs[i%len(specs)], t)
		i++
	}

	if traceCache {
		fmt.Fprintln(w, "second,cache_mb,cached_instances,cold_boots,evictions")
		for sec := 1.0; sec <= durationSec; sec++ {
			s.RunUntil(desiccant.Time(desiccant.Seconds(sec)))
			fmt.Fprintf(w, "%.0f,%.1f,%d,%d,%d\n", sec,
				float64(p.MemoryUsed())/(1<<20), p.CachedCount(),
				p.Stats().ColdBoots, p.Stats().Evictions)
		}
	}
	// Drain whatever is still in flight.
	s.RunUntil(end.Add(desiccant.Seconds(30)))
	s.Close()

	st := p.Stats()
	fmt.Fprintf(w, "setup=%s requests=%d completions=%d coldboots=%d (rate %.3f) warm=%d evictions=%d oom=%d\n",
		setup, st.Requests, st.Completions, st.ColdBoots, st.ColdBootRate(),
		st.WarmStarts, st.Evictions, st.OOMKills)
	if st.Latency.Count() > 0 {
		fmt.Fprintf(w, "latency p50=%.1fms p90=%.1fms p99=%.1fms cpu_busy=%v reclaim_cpu=%v\n",
			st.Latency.Percentile(50), st.Latency.Percentile(90), st.Latency.Percentile(99),
			st.CPUBusy, st.ReclaimCPU)
	}
	if mgr != nil {
		ms := mgr.Stats()
		fmt.Fprintf(w, "desiccant: reclamations=%d released=%.1fMB swapped=%.1fMB cpu=%v threshold=%.2f\n",
			ms.Reclamations, float64(ms.ReleasedBytes)/(1<<20), float64(ms.SwappedBytes)/(1<<20),
			ms.CPUTime, mgr.Threshold())
	}
	if len(specs) > 1 && len(st.PerFunction) > 0 {
		names := make([]string, 0, len(st.PerFunction))
		for n := range st.PerFunction {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return st.PerFunction[names[i]].Mean() > st.PerFunction[names[j]].Mean()
		})
		fmt.Fprintln(w, "slowest functions (mean ms):")
		for i, n := range names {
			if i >= 5 {
				break
			}
			fmt.Fprintf(w, "  %-18s %8.1f (n=%d)\n", n, st.PerFunction[n].Mean(), st.PerFunction[n].Count())
		}
	}
	return nil
}
