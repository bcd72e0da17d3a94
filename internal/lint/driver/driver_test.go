package driver_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"desiccant/internal/lint"
	"desiccant/internal/lint/driver"
)

// moduleRoot resolves the desiccant module directory from wherever the
// test binary runs.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Skipf("go command unavailable: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestRepoIsClean is the acceptance gate: the determinism-guard suite
// must report zero findings on this repository. A finding here means
// either a real nondeterminism bug or a missing //lint:allow
// annotation — fix the code, don't relax the test.
func TestRepoIsClean(t *testing.T) {
	diags, err := driver.Standalone(moduleRoot(t), []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}

// writeModule materializes a throwaway module for end-to-end runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const negModMod = "module lintneg\n\ngo 1.22\n"

const negModBad = `package lintneg

import "time"

// Bad reads the wall clock without an annotation.
func Bad() time.Time { return time.Now() }

func ch(c chan int) {
	go func() { c <- 1 }()
}
`

// TestStandaloneFindsViolations runs the in-process driver over a
// module with known violations and checks both analyzers fire.
func TestStandaloneFindsViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": negModMod, "bad.go": negModBad})
	diags, err := driver.Standalone(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer)
	}
	want := map[string]bool{"simtime": false, "rawgo": false}
	for _, name := range got {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("expected a %s finding, got %v", name, got)
		}
	}
}

// TestMutationDetection seeds a throwaway module with one canonical
// violation per second-generation analyzer and proves each fires. This
// is the mutation-testing guard for TestRepoIsClean: a suite that
// passes on the clean tree is only meaningful if these mutants are
// caught.
func TestMutationDetection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": negModMod,
		"mutants.go": `package lintneg

// Span declares a pages result but returns its byte argument: the
// unitcheck mutant.
//
//lint:unit ret=pages
func Span(lenBytes int64) int64 {
	return lenBytes
}

// Hot is annotated allocation-free but appends: the allocfree mutant.
//
//lint:allocfree
func Hot(s []int64, v int64) []int64 {
	return append(s, v)
}
`,
	})
	diags, err := driver.Standalone(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	want := map[string]bool{"unitcheck": false, "allocfree": false}
	for _, d := range diags {
		if _, ok := want[d.Analyzer]; ok {
			want[d.Analyzer] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("mutant for %s went undetected; findings: %v", name, diags)
		}
	}
}
