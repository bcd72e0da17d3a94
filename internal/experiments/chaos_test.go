package experiments

import (
	"bytes"
	"strings"
	"testing"

	"desiccant/internal/sim"
)

func quickChaosOptions() ChaosOptions {
	o := chaosOptions(Options{})
	o.Window = 15 * sim.Second
	o.Requests = 80
	o.Intensities = []float64{0, 1.0}
	return o
}

// TestChaosParallelByteIdentical is the sweep's determinism contract:
// the CSV is byte-identical at -parallel 1, 4, and 8.
func TestChaosParallelByteIdentical(t *testing.T) {
	var outputs []string
	for _, workers := range []int{1, 4, 8} {
		o := quickChaosOptions()
		o.Parallel = workers
		res, err := RunChaos(o)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		res.WriteCSV(&buf)
		outputs = append(outputs, buf.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("parallel run %d differs from serial:\n%s\nvs\n%s", i, outputs[0], outputs[i])
		}
	}
}

// TestChaosSweepShape checks the grid renders one row per cell, the
// fault-free control rows inject nothing, and no cell violates an
// invariant.
func TestChaosSweepShape(t *testing.T) {
	o := quickChaosOptions()
	res, err := RunChaos(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(o.Intensities); len(res.Cells) != want {
		t.Fatalf("cells: got %d want %d", len(res.Cells), want)
	}
	if v := res.FirstViolation(); v != "" {
		t.Fatalf("invariant violation in sweep: %s", v)
	}
	var sawFaults bool
	for _, c := range res.Cells {
		f := c.Result.Faults
		total := f.ThawRaces + f.ReclaimFails + f.PartialReclaims + f.OOMKills + f.SwapSqueezes + f.Bursts
		if c.Intensity == 0 && total != 0 {
			t.Errorf("%s i=0: control row injected %d faults", c.Mode, total)
		}
		if c.Intensity > 0 && total > 0 {
			sawFaults = true
		}
	}
	if !sawFaults {
		t.Error("no faults fired anywhere in the sweep")
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV lines: got %d want %d:\n%s", len(lines), 1+len(res.Cells), buf.String())
	}
	if !strings.HasPrefix(lines[0], "mode,intensity,") {
		t.Fatalf("bad header: %s", lines[0])
	}
}
