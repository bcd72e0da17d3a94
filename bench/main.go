// Command bench is the repository's benchmark. It runs four workloads
// through the entry points desiccant-sim calls, times them on the host,
// checks every rep's output against the committed reference files, and
// with -trace splits host CPU across the simulator's packages.
//
// From the repository root:
//
//	bash bench/run.sh                       # all workloads, reference seeds
//	bash bench/run.sh -workload replay -seed 3 -seconds 15 -trace 0
//	bash bench/run.sh -trace profiles/      # per-layer table, profiles kept
//	bash bench/run.sh -o a.json; bash bench/run.sh -o b.json
//	bash bench/run.sh compare a.json b.json
//
// run.sh builds this module into .bench_build/ first; inside bench/,
// "go run ." does the same without the private build cache.
//
// The last line of a workload's output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json, or with -trace its per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: bench compare A.json B.json")
		}
		_, bm, err := findBenchmark()
		if err != nil {
			return err
		}
		a, err := readRecord(args[1])
		if err != nil {
			return err
		}
		b, err := readRecord(args[2])
		if err != nil {
			return err
		}
		return compare(os.Stdout, bm, a, b)
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Uint64("seed", 0, "input seed (0 = each workload's reference seed)")
	seconds := fs.Float64("seconds", 0, "host seconds of timed reps per workload (0 = BENCHMARK.json run_seconds)")
	trace := fs.String("trace", "0", "0 = untraced; 1 = profile every other rep and report per-layer metrics; a directory = as 1, keeping the profiles there")
	out := fs.String("o", "", "write the full run record (every sample) to this JSON file")
	child := fs.Bool("child", false, "internal: run one child process's share")
	budget := fs.Float64("budget", 0, "internal: host seconds this child's timed reps may use")
	first := fs.Int("first", 0, "internal: run-wide index of this child's first timed rep")
	t0 := fs.Int64("t0", 0, "internal: Unix nanoseconds at which the orchestrator started this child")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, bm, err := findBenchmark()
	if err != nil {
		return err
	}
	traced, profileDir := *trace != "0", ""
	if traced && *trace != "1" {
		profileDir = *trace
	}

	if *child {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		rpt, err := measure(w, childConfig{
			root: root, seed: *seed, start: time.Unix(0, *t0),
			budget:   time.Duration(*budget * float64(time.Second)),
			firstRep: *first, trace: traced, profileDir: profileDir,
		})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rpt)
	}

	if *seconds <= 0 {
		*seconds = float64(bm.RunSeconds)
	}
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return err
		}
	}
	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	rec := newRecord(*seconds)
	for i := range selected {
		w := &selected[i]
		s := *seed
		if s == 0 {
			s = w.refSeed
		}
		// A workload's run must end within three minutes; a child still
		// running then is killed and the run fails.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		wr, err := runWorkload(ctx, w, s, *seconds, *trace)
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Workloads = append(rec.Workloads, *wr)
		if err := report(os.Stdout, bm, wr, traced); err != nil {
			return err
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findBenchmark locates the repository root, the nearest directory at or
// above the working directory that holds BENCHMARK.json, and reads it.
func findBenchmark() (string, *benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var bm benchmarkFile
			if err := json.Unmarshal(b, &bm); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, &bm, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}
