package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// withWorkload swaps a fake workload into the table for one test.
func withWorkload(t *testing.T, w workload) *workload {
	t.Helper()
	saved := workloads
	workloads = []workload{w}
	t.Cleanup(func() { workloads = saved })
	got, err := lookupWorkload(w.name)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func writeRef(t *testing.T, content string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "ref.csv"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// fakeRep returns a rep function whose n-th call (0 = warm-up) returns
// outputs(n).
func fakeRep(outputs func(n int) string) func(input) (repResult, error) {
	n := 0
	return func(input) (repResult, error) {
		out := outputs(n)
		n++
		return repResult{outputs: [][]byte{[]byte(out)}}, nil
	}
}

func TestCorruptedRepCountsAsFailed(t *testing.T) {
	const ref = "a,b\n1,2\n"
	root := writeRef(t, ref)
	w := withWorkload(t, workload{
		name: "fake", refSeed: 7, refs: []reference{{path: "ref.csv"}},
		rep: fakeRep(func(n int) string {
			if n == 1 {
				return "a,b\n1,3\n" // the timed rep flips a byte
			}
			return ref
		}),
	})
	rpt, err := measure(w, childConfig{root: root, seed: 7, start: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	// A zero budget runs the warm-up rep and exactly one timed rep.
	if rpt.Attempted != 2 || rpt.Failed != 1 {
		t.Fatalf("failed %d of %d reps, want failed_frac 1/2", rpt.Failed, rpt.Attempted)
	}
	if len(rpt.Failures) != 1 || !strings.Contains(rpt.Failures[0], "ref.csv") {
		t.Errorf("failure message %q does not name the reference file", rpt.Failures)
	}
}

func TestNonReferenceSeedComparesWithWarmup(t *testing.T) {
	root := writeRef(t, "a,b\n1,2\n")
	// Outputs at another seed differ from the committed file but keep
	// its shape; the timed rep must match the warm-up rep instead.
	w := withWorkload(t, workload{
		name: "fake", refSeed: 7, refs: []reference{{path: "ref.csv"}},
		rep: fakeRep(func(int) string { return "a,b\n9,9\n" }),
	})
	rpt, err := measure(w, childConfig{root: root, seed: 8, start: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Attempted != 2 || rpt.Failed != 0 {
		t.Fatalf("failed %d of %d reps (%v), want 0 of 2", rpt.Failed, rpt.Attempted, rpt.Failures)
	}

	w.rep = fakeRep(func(n int) string { return "a,b\n9," + string(rune('0'+n)) + "\n" })
	rpt, err = measure(w, childConfig{root: root, seed: 8, start: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Failed != 1 || !strings.Contains(rpt.Failures[0], "warm-up rep") {
		t.Fatalf("a timed rep unlike the warm-up rep gave failures %v", rpt.Failures)
	}
}

func TestReferencesExist(t *testing.T) {
	root, _, err := findBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		refs, err := loadReferences(root, w.refs)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i, r := range refs {
			if len(r) == 0 {
				t.Errorf("%s: reference %s is empty", w.name, w.refs[i].path)
			}
		}
	}
	fig9, err := loadReferences(root, []reference{{path: "results/fig9.csv", filter: fig9Rows}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(string(fig9[0]), "\n"), 1+3*len(replayScales); got != want {
		t.Errorf("fig9 rows at the replay scales: %d lines, want %d", got, want)
	}
}
