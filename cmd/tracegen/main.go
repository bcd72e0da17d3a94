// Command tracegen synthesizes an Azure-Functions-style trace and
// prints it as CSV, saves/loads traces, or reports how the Table 1
// functions would be matched to one (§5.3's duration-based selection).
//
// Usage:
//
//	tracegen [-n 2000] [-seed 11] [-match] [-rate 2.2] [-o file] [-load file]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"desiccant/internal/trace"
	"desiccant/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 2000, "number of functions to synthesize")
	seed := fs.Uint64("seed", 11, "generator seed")
	match := fs.Bool("match", false, "print the Table 1 matching instead of the raw trace")
	rate := fs.Float64("rate", 2.2, "normalize the matched set to this total req/s (with -match)")
	out := fs.String("o", "", "write the trace as CSV to this file")
	load := fs.String("load", "", "load a previously saved trace instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *match && (!(*rate > 0) || math.IsInf(*rate, 1)) {
		return fmt.Errorf("-rate must be positive and finite, got %v", *rate)
	}

	var tr *trace.Trace
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		tr, err = trace.ParseCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		if *n < 1 {
			return fmt.Errorf("-n must be at least 1, got %d", *n)
		}
		tr = trace.Generate(trace.GenConfig{Seed: *seed, Functions: *n})
	}
	specs := workload.All()
	if *match && len(tr.Entries) < len(specs) {
		return fmt.Errorf("-match needs at least %d trace entries, got %d", len(specs), len(tr.Entries))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "# wrote %d entries to %s\n", len(tr.Entries), *out)
		if !*match {
			return nil
		}
	}

	if !*match {
		fmt.Fprintln(stdout, "id,pattern,avg_duration_ms,mean_iat_s,memory_mb")
		for _, e := range tr.Entries {
			fmt.Fprintf(stdout, "%s,%s,%.1f,%.1f,%d\n",
				e.ID, e.Pattern, e.AvgDurationMillis, e.MeanIATSeconds, e.MemoryMB)
		}
		return nil
	}

	assignments := trace.Match(tr, specs)
	trace.NormalizeRate(assignments, *rate)
	for _, a := range assignments {
		if iat := a.Entry.MeanIATSeconds; !(iat > 0) || math.IsInf(iat, 1) {
			return fmt.Errorf("-rate %v gives %s a mean inter-arrival time of %v s", *rate, a.Spec.Name, iat)
		}
	}
	fmt.Fprintln(stdout, "function,chain,total_exec_ms,matched_id,matched_duration_ms,pattern,mean_iat_s,rate_rps")
	var total float64
	for _, a := range assignments {
		total += a.Entry.Rate()
		fmt.Fprintf(stdout, "%s,%d,%.1f,%s,%.1f,%s,%.2f,%.4f\n",
			a.Spec.Name, a.Spec.ChainLength, a.Spec.TotalExecTime().Millis(),
			a.Entry.ID, a.Entry.AvgDurationMillis, a.Entry.Pattern,
			a.Entry.MeanIATSeconds, a.Entry.Rate())
	}
	fmt.Fprintf(stderr, "# total base rate: %.3f req/s\n", total)
	return nil
}
