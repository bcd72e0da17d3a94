// Trace replay: the paper's end-to-end experiment in miniature.
//
// This example builds the full stack — simulated host, OpenWhisk-style
// platform, Azure-style synthetic trace — and runs the same load three
// times: vanilla, eager-GC, and with Desiccant attached. It prints the
// §5.3 headline metrics (cold-boot rate, throughput, tail latency) so
// you can see the cache-capacity feedback loop with your own eyes.
//
// Run it with:
//
//	go run ./examples/trace-replay
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"desiccant"
	"desiccant/internal/trace"
)

const scaleFactor = 15.0

var (
	warmup = desiccant.Seconds(30)
	replay = desiccant.Seconds(120)
)

func main() {
	assignments := trace.Synthetic{Seed: 11, Functions: 1000, BaseRate: 2.2}.Assignments(desiccant.Functions(), 0)

	fmt.Printf("%-10s %12s %12s %10s %10s %10s %12s\n",
		"setup", "coldboot/req", "throughput", "p50(ms)", "p99(ms)", "evictions", "cached@end")
	cold, p99 := map[string]float64{}, map[string]float64{}
	for _, setup := range []string{"vanilla", "eager", "desiccant"} {
		var err error
		if cold[setup], p99[setup], err = runSetup(os.Stdout, setup, assignments); err != nil {
			log.Fatal(err)
		}
	}
	v, d := "vanilla", "desiccant"
	fmt.Printf("\nVanilla -> Desiccant: cold boots per request %.4f -> %.4f (%+.4f), p99 latency %.1f -> %.1f ms (%+.1f ms).\n",
		cold[v], cold[d], cold[d]-cold[v], p99[v], p99[d], p99[d]-p99[v])
}

// runSetup replays the trace on one setup, writes its table row (and,
// with Desiccant, the manager's totals) to w, and returns its cold-boot
// rate and p99 latency.
func runSetup(w io.Writer, setup string, assignments []trace.Assignment) (coldRate, p99 float64, err error) {
	cfg := desiccant.DefaultPlatformConfig()
	if setup == "eager" {
		cfg.Policy = desiccant.PolicyEager
	}
	s, err := desiccant.NewSimulation(desiccant.Config{Platform: &cfg, EnableDesiccant: setup == "desiccant"})
	if err != nil {
		return 0, 0, err
	}
	p := s.Platform

	rp := trace.NewReplayer(p, assignments, 7)
	rp.Schedule(0, desiccant.Time(warmup), scaleFactor)
	rp.Schedule(desiccant.Time(warmup), desiccant.Time(warmup+replay), scaleFactor)

	s.RunUntil(desiccant.Time(warmup))
	p.ResetStats()
	s.RunUntil(desiccant.Time(warmup + replay))
	s.Close()

	st := p.Stats()
	fmt.Fprintf(w, "%-10s %12.3f %12.2f %10.1f %10.1f %10d %12d\n",
		setup, st.ColdBootRate(), float64(st.Completions)/replay.Seconds(),
		st.Latency.Percentile(50), st.Latency.Percentile(99),
		st.Evictions, p.CachedCount())
	if s.Manager != nil {
		ms := s.Manager.Stats()
		fmt.Fprintf(w, "%-10s reclaimed %d instances, released %.1f MiB, burned %v CPU\n",
			"", ms.Reclamations, float64(ms.ReleasedBytes)/(1<<20), ms.CPUTime)
	}
	return st.ColdBootRate(), st.Latency.Percentile(99), nil
}
