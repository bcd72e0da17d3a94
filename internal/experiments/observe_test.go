package experiments

import (
	"bytes"
	"testing"

	"desiccant/internal/sim"
)

func smallObserveOptions() ObserveOptions {
	o := observeOptions(Options{})
	o.Window = 5 * sim.Second
	o.Functions = 100
	o.SampleEvery = 1 * sim.Second
	return o
}

// TestObserveDeterministicAcrossParallelCells runs the instrumented
// replay on several workers at once — each cell owns its engine, bus,
// recorder, and registry — and demands byte-identical exports from
// every one. Run under -race this also proves multi-subscriber buses
// share nothing across cells.
func TestObserveDeterministicAcrossParallelCells(t *testing.T) {
	const cells = 4
	traces := make([]bytes.Buffer, cells)
	metricses := make([]bytes.Buffer, cells)
	snaps := make([]bytes.Buffer, cells)
	err := ForEach(cells, cells, func(i int) error {
		return RunObserve(smallObserveOptions(), ObserveOutputs{Trace: &traces[i], Metrics: &metricses[i], Snapshot: &snaps[i]})
	})
	if err != nil {
		t.Fatal(err)
	}
	if traces[0].Len() == 0 || metricses[0].Len() == 0 || snaps[0].Len() == 0 {
		t.Fatal("empty export")
	}
	for i := 1; i < cells; i++ {
		if !bytes.Equal(traces[0].Bytes(), traces[i].Bytes()) {
			t.Fatalf("cell %d trace differs from cell 0", i)
		}
		if !bytes.Equal(metricses[0].Bytes(), metricses[i].Bytes()) {
			t.Fatalf("cell %d metrics differ from cell 0", i)
		}
		if !bytes.Equal(snaps[0].Bytes(), snaps[i].Bytes()) {
			t.Fatalf("cell %d snapshot differs from cell 0", i)
		}
	}
}

// TestObserveSummaryOutput sanity-checks the human-readable digest.
func TestObserveSummaryOutput(t *testing.T) {
	var sum bytes.Buffer
	if err := RunObserve(smallObserveOptions(), ObserveOutputs{Summary: &sum}); err != nil {
		t.Fatal(err)
	}
	out := sum.String()
	for _, want := range []string{"observability summary", "events by kind:", "invoke.submit", "metrics:"} {
		if !bytes.Contains(sum.Bytes(), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
