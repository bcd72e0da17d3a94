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

// negModBad holds one violation per analyzer. The sim and experiments
// stubs give rngshare its *sim.RNG and worker pool; the stub pool runs
// tasks in order, so it needs no goroutine of its own.
var negModBad = map[string]string{
	"go.mod": negModMod,
	"bad.go": `package lintneg

import (
	"time"

	"lintneg/experiments"
	"lintneg/sim"
)

// Bad reads the wall clock without an annotation.
func Bad() time.Time { return time.Now() }

func ch(c chan int) {
	go func() { c <- 1 }()
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func shared(rng *sim.RNG) {
	_ = experiments.ForEach(2, 4, func(i int) error {
		_ = rng.Float64()
		return nil
	})
}
`,
	"sim/sim.go": `package sim

type RNG struct{ s uint64 }

func (r *RNG) Float64() float64 { r.s++; return float64(r.s) }
`,
	"experiments/pool.go": `package experiments

func ForEach(workers, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
`,
}

// TestStandaloneFindsViolations runs the in-process driver over a
// module with one known violation per analyzer and checks that each
// analyzer fires. It is what makes TestRepoIsClean meaningful: a suite
// that passes on the clean tree must be able to fail.
func TestStandaloneFindsViolations(t *testing.T) {
	dir := writeModule(t, negModBad)
	diags, err := driver.Standalone(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	seen := make(map[string]bool)
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for _, a := range lint.All() {
		if !seen[a.Name] {
			t.Errorf("expected a %s finding, got %v", a.Name, diags)
		}
	}
}
