package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names this
// package's workloads, and that every metric it lists is produced, with
// the same unit, by a run with one profiled and one unprofiled rep.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, bm, err := findBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(names.Workloads), len(workloads))
	}
	for i, w := range names.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q", i, w.Name, workloads[i].name)
		}
	}

	layers := &layerCPU{Total: 1, Self: map[string]float64{"go": 1}, Cum: map[string]float64{"go": 1}}
	rec := workloadRecord{Metrics: deriveMetrics([]childReport{{
		SetupS: 1,
		Reps:   []repSample{{WallS: 1, CPUS: 1, ProbeMS: 7}, {WallS: 1, CPUS: 1, ProbeMS: 7, Layers: layers}},
	}})}
	for _, spec := range append(append([]metricSpec(nil), bm.EndToEnd...), bm.PerLayer...) {
		m := rec.metric(spec.Name)
		switch {
		case m == nil:
			t.Errorf("%s is listed in BENCHMARK.json but never measured", spec.Name)
		case m.Unit != spec.Unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", spec.Name, m.Unit, spec.Unit)
		}
	}
}
