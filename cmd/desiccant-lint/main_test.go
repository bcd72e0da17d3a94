package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const negModMod = "module lintneg\n\ngo 1.22\n"

const negModBad = `package lintneg

import "time"

// Bad reads the wall clock without an annotation.
func Bad() time.Time { return time.Now() }

func ch(c chan int) {
	go func() { c <- 1 }()
}
`

const negModAllowed = `package lintneg

import "time"

// Stamp is annotated progress reporting, the sanctioned escape hatch.
func Stamp() time.Time {
	return time.Now() //lint:allow simtime
}
`

// writeModule materializes a throwaway module for end-to-end runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRun drives the command end to end on throwaway modules: a
// violating module fails with findings, an annotated one passes, and a
// pattern that matches no package is a load error.
func TestRun(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go command unavailable: %v", err)
	}
	cases := []struct {
		name     string
		src      string
		args     []string
		wantCode int
		wantOut  []string
	}{
		{"violations", negModBad, []string{"./..."}, 2,
			[]string{"simtime: time.Now", "rawgo: raw go statement"}},
		{"annotated", negModAllowed, []string{"./..."}, 0, nil},
		{"no package", negModAllowed, []string{"./nosuch/..."}, 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, map[string]string{"go.mod": negModMod, "src.go": tc.src})
			var stdout, stderr bytes.Buffer
			code := run(dir, tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, &stdout, &stderr)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, &stdout)
				}
			}
			if tc.wantCode == 0 && stdout.Len() > 0 {
				t.Errorf("clean run printed findings:\n%s", &stdout)
			}
		})
	}
}
