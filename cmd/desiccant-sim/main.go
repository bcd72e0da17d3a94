// Command desiccant-sim regenerates the paper's tables and figures
// from the simulation. Each experiment prints CSV rows whose caption
// and data mirror the corresponding figure, in the spirit of the
// artifact's run.sh/parse.sh scripts.
//
// Usage:
//
//	desiccant-sim list
//	desiccant-sim <experiment> [-quick] [-seed N] [-parallel N] [-o file]
//	desiccant-sim all [-quick] [-seed N] [-parallel N] [-o dir]
//
// `all` writes <name>.csv for every experiment, plus the side exports
// its optional flags accept: <name>.trace.json, observe.metrics.csv,
// calibrate.json and <name>.summary.txt.
//
// `desiccant-sim list` prints every registered experiment.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	// The calibrate experiment self-registers; the blank import keeps
	// the registry in internal/experiments free of an import cycle.
	_ "desiccant/internal/calibrate"
	"desiccant/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "desiccant-sim:", err)
		os.Exit(1)
	}
}

// flags holds one invocation's parsed command line.
type flags struct {
	quick, summary                        bool
	seed                                  uint64
	parallel                              int
	intensity                             float64
	out, tracePath, metricsPath, jsonPath string
}

// optionalFlags are the flags an experiment must list in its
// experiments.Entry.Flags to accept; every other flag applies to every
// command.
var optionalFlags = []string{"metrics", "trace", "summary", "intensity", "json"}

// acceptedFlags returns the optional flags cmd accepts.
func acceptedFlags(cmd string) []string {
	for _, e := range experiments.List() {
		if e.Name == cmd {
			return e.Flags
		}
	}
	return nil
}

// parseArgs parses args[1:] as the flags of command args[0],
// rejecting any optional flag the command does not accept.
func parseArgs(args []string) (string, *flags, error) {
	if len(args) == 0 {
		usage(os.Stderr)
		return "", nil, fmt.Errorf("missing experiment name")
	}
	cmd := args[0]
	f := &flags{}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.BoolVar(&f.quick, "quick", false, "reduced iterations/sweeps for a fast smoke run")
	fs.Uint64Var(&f.seed, "seed", 0, "override the experiment seed (0 = default)")
	fs.IntVar(&f.parallel, "parallel", 0, "sweep workers; 0 = GOMAXPROCS, 1 = serial (output is identical either way)")
	fs.StringVar(&f.out, "o", "", "output file (or directory for 'all'); default stdout")
	fs.StringVar(&f.tracePath, "trace", "", "write a Chrome/Perfetto trace JSON to this file (observe, ext-attr, trace)")
	fs.StringVar(&f.metricsPath, "metrics", "", "write the sampled metrics time series CSV to this file (observe only)")
	fs.BoolVar(&f.summary, "summary", false, "print a human-readable summary instead of the main CSV (observe, ext-attr, trace)")
	fs.Float64Var(&f.intensity, "intensity", 0, "pin the fault intensity instead of sweeping the default axis (chaos only)")
	fs.StringVar(&f.jsonPath, "json", "", "write the machine-readable VALIDATION.json report to this file (calibrate only)")
	if err := fs.Parse(args[1:]); err != nil {
		return "", nil, err
	}
	accepted := acceptedFlags(cmd)
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err == nil && slices.Contains(optionalFlags, fl.Name) && !slices.Contains(accepted, fl.Name) {
			err = fmt.Errorf("-%s does not apply to %s", fl.Name, cmd)
		}
	})
	switch {
	case err != nil:
		return "", nil, err
	case fs.NArg() > 0: // e.g. "-json -parallel 2" leaves "2"
		return "", nil, fmt.Errorf("unexpected argument %q after the flags of %s", fs.Arg(0), cmd)
	}
	return cmd, f, nil
}

func run(args []string) error {
	cmd, f, err := parseArgs(args)
	if err != nil {
		return err
	}
	opts := experiments.Options{Quick: f.quick, Seed: f.seed, Parallel: f.parallel, Summary: f.summary, Intensity: f.intensity}
	// Checked before any file is created or any experiment runs.
	if err := opts.Validate(); err != nil {
		return err
	}
	switch cmd {
	case "list", "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	case "all":
		return runAll(opts, f.out)
	}

	// Wall-clock here only times the run for the progress line on
	// stderr; nothing simulated observes it.
	started := time.Now() //lint:allow simtime
	runCmd := func(w io.Writer, opts experiments.Options) error { return experiments.Run(cmd, w, opts) }
	if err := runTo(runCmd, opts, f.out, exports{f.tracePath, f.metricsPath, f.jsonPath}); err != nil {
		return err
	}
	elapsed := time.Since(started) //lint:allow simtime
	fmt.Fprintf(os.Stderr, "# %s finished in %v\n", cmd, elapsed.Round(time.Millisecond))
	return nil
}

// exports are the side-output paths of one run; an empty path is not
// written.
type exports struct{ trace, metrics, json string }

// runTo runs one experiment with its main output at out (stdout when
// empty) and each side output at its path in ex. Every file it
// creates is closed before it returns.
func runTo(run func(io.Writer, experiments.Options) error, opts experiments.Options, out string, ex exports) error {
	var outs []*output
	for _, x := range []struct {
		path string
		dst  *io.Writer
	}{{ex.trace, &opts.Trace}, {ex.metrics, &opts.Metrics}, {ex.json, &opts.Validation}} {
		if x.path == "" {
			continue
		}
		o, err := create(x.path)
		if err != nil {
			closeAll(outs)
			return err
		}
		outs = append(outs, o)
		*x.dst = o
	}
	w, err := create(out)
	if err != nil {
		closeAll(outs)
		return err
	}
	outs = append(outs, w)
	err = run(w, opts)
	if cerr := closeAll(outs); err == nil {
		err = cerr
	}
	return err
}

// runEntry writes one experiment's exports into dir: <name>.csv, and
// one file for each output flag its entry accepts. -trace writes
// <name>.trace.json, -metrics <name>.metrics.csv and -json <name>.json
// beside the CSV; -summary writes <name>.summary.txt from a second run
// with Summary set. -intensity is an input and writes nothing.
func runEntry(e experiments.Entry, opts experiments.Options, dir string) error {
	side := func(flag, suffix string) string {
		if !slices.Contains(e.Flags, flag) {
			return ""
		}
		return filepath.Join(dir, e.Name+suffix)
	}
	ex := exports{side("trace", ".trace.json"), side("metrics", ".metrics.csv"), side("json", ".json")}
	if err := runTo(e.Run, opts, filepath.Join(dir, e.Name+".csv"), ex); err != nil {
		return err
	}
	if summary := side("summary", ".summary.txt"); summary != "" {
		opts.Summary = true
		return runTo(e.Run, opts, summary, exports{})
	}
	return nil
}

// runAll regenerates every experiment with all its exports (runEntry).
// Whole experiments run concurrently (each one also fans its own sweep
// out); every experiment writes to its own files, and the progress log
// prints in registry order once all are done, so the output stays
// deterministic.
func runAll(opts experiments.Options, dir string) error {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries := experiments.List()
	durations := make([]time.Duration, len(entries))
	err := experiments.ForEach(opts.Parallel, len(entries), func(i int) error {
		// Progress reporting again: the duration lands on stderr, never
		// in a CSV.
		started := time.Now() //lint:allow simtime
		if err := runEntry(entries[i], opts, dir); err != nil {
			return fmt.Errorf("%s: %w", entries[i].Name, err)
		}
		durations[i] = time.Since(started) //lint:allow simtime
		return nil
	})
	if err != nil {
		return err
	}
	for i, e := range entries {
		fmt.Fprintf(os.Stderr, "# %-8s -> %s (%v)\n",
			e.Name, filepath.Join(dir, e.Name+".csv"), durations[i].Round(time.Millisecond))
	}
	return nil
}

// output is one destination the command writes, behind a buffer.
// Experiments render CSV with fmt.Fprintf and drop its errors; the
// buffer keeps the first write error and close returns it, so a write
// that fails (a full disk, a closed pipe) fails the command.
type output struct {
	*bufio.Writer
	file *os.File // nil for stdout, which close flushes but leaves open
}

// create opens path for writing, or stdout when path is empty.
func create(path string) (*output, error) {
	if path == "" {
		return &output{Writer: bufio.NewWriter(os.Stdout)}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &output{Writer: bufio.NewWriter(f), file: f}, nil
}

// close flushes the buffer and closes the file, returning the first
// error of either.
func (o *output) close() error {
	err := o.Flush()
	if o.file != nil {
		if cerr := o.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// closeAll closes every output and returns the first error.
func closeAll(outs []*output) error {
	var err error
	for _, o := range outs {
		if cerr := o.close(); err == nil {
			err = cerr
		}
	}
	return err
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: desiccant-sim <experiment> [-quick] [-seed N] [-parallel N] [-o file]")
	fmt.Fprintln(w, "       desiccant-sim all [-quick] [-parallel N] [-o dir]")
	fmt.Fprintln(w, "       desiccant-sim observe [-quick] [-trace out.json] [-metrics out.csv] [-summary]")
	fmt.Fprintln(w, "       desiccant-sim chaos [-quick] [-seed N] [-intensity X] [-parallel N]")
	fmt.Fprintln(w, "       desiccant-sim ext-attr [-quick] [-seed N] [-trace out.json] [-summary]")
	fmt.Fprintln(w, "       desiccant-sim trace [-quick] [-seed N] [-trace out.json] [-summary] [-o attr.csv]")
	fmt.Fprintln(w, "       desiccant-sim calibrate [-quick] [-seed N] [-parallel N] [-json VALIDATION.json]")
	fmt.Fprintln(w, "\nexperiments:")
	for _, e := range experiments.List() {
		fmt.Fprintf(w, "  %-8s %-10s %s\n", e.Name, e.Figure, e.Description)
	}
}
