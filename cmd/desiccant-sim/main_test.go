package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"desiccant/internal/experiments"
)

func TestRunTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t1.csv")
	if err := run([]string{"table1", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "hotel-searching") {
		t.Fatalf("table1 incomplete: %s", data)
	}
}

func TestRunQuickFigure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig1.csv")
	if err := run([]string{"fig1", "-quick", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "avg_ratio") {
		t.Fatal("fig1 output missing header")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("empty args accepted")
	}
	if err := run([]string{"no-such-figure"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"table1", "-bogusflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"ext-cluster", "-shards", "2"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("-shards: err %v, want an undefined-flag error", err)
	}
	if err := run([]string{"chaos", "-quick", "-intensity", "NaN"}); err == nil || err.Error() != "experiments: Intensity must be in [0,1], got NaN" {
		t.Fatalf("-intensity NaN: err %v, want the range error", err)
	}
	t.Run("stray-arguments", func(t *testing.T) {
		// "-json" takes "-parallel" as its path, leaving "2" behind;
		// the command must fail before it creates that file.
		t.Chdir(t.TempDir())
		for _, args := range [][]string{
			{"calibrate", "-quick", "-json", "-parallel", "2"},
			{"fig1", "extra"},
		} {
			if err := run(args); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
				t.Errorf("%q: err %v, want an unexpected-argument error", args, err)
			}
		}
		if files, _ := os.ReadDir("."); len(files) != 0 {
			t.Errorf("rejected commands left %d files behind, first %q", len(files), files[0].Name())
		}
	})
	t.Run("full-device", func(t *testing.T) {
		// Every write to /dev/full fails with ENOSPC: the command must
		// report it, not print its rows into the void and succeed.
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full on this system")
		}
		if err := run([]string{"table1", "-o", "/dev/full"}); err == nil || !strings.Contains(err.Error(), "no space left") {
			t.Fatalf("-o /dev/full: err %v, want the write error", err)
		}
	})
}

// TestFlagTable checks, for every registered experiment and every
// optional flag, that the command line accepts the pair exactly when
// the registry entry lists the flag. Every command that takes an
// optional flag is a registry entry, the trace command included.
func TestFlagTable(t *testing.T) {
	if !slices.ContainsFunc(experiments.List(), func(e experiments.Entry) bool { return e.Name == "trace" }) {
		t.Fatal("the trace command is not a registry entry")
	}
	args := map[string][]string{
		"metrics":   {"-metrics", "m.csv"},
		"trace":     {"-trace", "t.json"},
		"summary":   {"-summary"},
		"intensity": {"-intensity", "0.5"},
		"json":      {"-json", "v.json"},
	}
	if len(args) != len(optionalFlags) {
		t.Fatalf("table covers %d flags, the CLI has %d optional flags", len(args), len(optionalFlags))
	}
	for _, e := range experiments.List() {
		for _, fl := range optionalFlags {
			_, _, err := parseArgs(append([]string{e.Name}, args[fl]...))
			if want := slices.Contains(e.Flags, fl); (err == nil) != want {
				t.Errorf("%s -%s: accepted=%v, registry lists it: %v (err %v)", e.Name, fl, err == nil, want, err)
			}
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllRejectsBadDir(t *testing.T) {
	// A file path where a directory is needed must fail cleanly.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"all", "-o", filepath.Join(f, "sub")}); err == nil {
		t.Fatal("bad output dir accepted")
	}
}

// TestAllSideExports runs the observe and calibrate entries the way
// `all` does and checks that every side file it writes is byte
// identical to the standalone run with that flag.
func TestAllSideExports(t *testing.T) {
	dir, alone := t.TempDir(), t.TempDir()
	for _, e := range experiments.List() {
		if e.Name == "observe" || e.Name == "calibrate" {
			if err := runEntry(e, experiments.Options{Quick: true}, dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	at := func(name string) string { return filepath.Join(alone, name) }
	for _, args := range [][]string{
		{"observe", "-quick", "-trace", at("observe.trace.json"), "-metrics", at("observe.metrics.csv"), "-o", at("observe.csv")},
		{"observe", "-quick", "-summary", "-o", at("observe.summary.txt")},
		{"calibrate", "-quick", "-json", at("calibrate.json"), "-o", at("calibrate.csv")},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
	}
	for _, name := range []string{"observe.csv", "observe.trace.json", "observe.metrics.csv", "observe.summary.txt", "calibrate.csv", "calibrate.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(at(name))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: all wrote %d bytes, the standalone run %d, or they differ", name, len(got), len(want))
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 6 {
		t.Errorf("observe and calibrate wrote %d files, want 6", len(files))
	}
}
