package cluster

// Golden byte-identity tests for the two exporters: the fleet summary
// (with migration active) and the capacity-planning CSV over a tiny
// grid. Any behavioural drift in the cluster protocol — a report
// merged in a different order, a migration placed differently — lands
// in these numbers and shows up as a byte diff.
//
// Regenerate (only when an intentional model change lands) with
//
//	go test ./internal/cluster -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes); the cluster protocol changed observable "+
			"behaviour — diff the files, regenerate with -update only if the change is intended",
			name, len(got), len(want))
	}
}

// goldenSummaryOptions is the summary specimen: garbage-aware packing
// over a small cache so migration fires.
func goldenSummaryOptions() Options {
	o := quickOptions(PolicyGarbageAware)
	o.CacheBytes = 48 << 20
	o.ZipfSkew = 0.9
	o.Migration = DefaultMigration()
	o.Migration.HighFrac = 0.5
	o.Migration.LowFrac = 0.45
	return o
}

func TestGoldenSummary(t *testing.T) {
	got := summary(t, goldenSummaryOptions())
	checkGolden(t, "golden_summary.csv", []byte(got))
}

// TestGoldenCapacity renders a tiny nodes × RAM grid. Serial on
// purpose: the cluster package has no parallel driver (the experiment
// layer owns fan-out); byte-identity of each cell is what matters.
func TestGoldenCapacity(t *testing.T) {
	var pts []CapacityPoint
	for _, nodes := range []int{2, 4} {
		for _, cache := range []int64{64 << 20, 128 << 20} {
			o := quickOptions(PolicyGarbageAware)
			o.Nodes = nodes
			o.CacheBytes = cache
			o.ZipfSkew = 0.9
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			pts = append(pts, CapacityPoint{Nodes: nodes, CacheBytes: cache, Res: res})
		}
	}
	var buf bytes.Buffer
	WriteCapacityCSV(&buf, pts, 0.25)
	checkGolden(t, "golden_capacity.csv", buf.Bytes())
}
