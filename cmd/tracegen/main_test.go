package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAndPrint(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "50", "-seed", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "\n")
	if lines != 51 { // header + 50
		t.Fatalf("lines: %d", lines)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "30", "-o", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "wrote 30 entries") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	out.Reset()
	if err := run([]string{"-load", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "\n") != 31 {
		t.Fatalf("loaded lines: %d", strings.Count(out.String(), "\n"))
	}
}

func TestMatchMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "500", "-match", "-rate", "3.0"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mapreduce") {
		t.Fatal("matching output incomplete")
	}
	if !strings.Contains(errOut.String(), "total base rate: 3.000") {
		t.Fatalf("rate not normalized: %s", errOut.String())
	}
}

func TestErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-load", "/no/such/file"}, &out, &errOut); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-bogus"}, &out, &errOut); err == nil {
		t.Fatal("bad flag accepted")
	}

	// Degenerate inputs fail with an error, never a panic or a NaN/Inf
	// cell.
	small := filepath.Join(t.TempDir(), "small.csv")
	if err := run([]string{"-n", "5", "-o", small}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-5"},
		{"-n", "500", "-match", "-rate", "0"},
		{"-n", "500", "-match", "-rate", "-1"},
		{"-n", "500", "-match", "-rate", "NaN"},
		{"-n", "500", "-match", "-rate", "+Inf"},
		{"-n", "500", "-match", "-rate", "1e-320"},
		{"-n", "1", "-match"},
		{"-load", small, "-match"},
	} {
		out.Reset()
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("%v accepted; stdout:\n%s", args, &out)
		}
	}
}
