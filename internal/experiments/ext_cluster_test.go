package experiments

import (
	"bytes"
	"strings"
	"testing"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
)

// TestFleetGoldenPreRefactor pins the cluster refactor to the byte:
// the quick ext-fleet CSV was captured from the pre-refactor
// fleetRouter implementation, and the ext-fleet entry — now a pinned
// cluster.Run plus a legacy-column writer — must still reproduce it
// exactly. If this test fails, the refactor moved a byte; there is no
// intended reason for it to, so regenerating with -update needs a
// written justification in the commit.
func TestFleetGoldenPreRefactor(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("ext-fleet", &buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	checkE2EGolden(t, "golden_fleet_quick.csv", buf.Bytes())
}

// TestClusterSweepResidueGrantCells replays the one sweep cell
// (least-loaded, reclaim) that used to panic at these base rates: a
// manager was granted a float residue of the idle CPU pool, and the
// reclamation it paced overflowed simulated time ("event scheduled in
// the past").
func TestClusterSweepResidueGrantCells(t *testing.T) {
	for _, rate := range []float64{2.1805772531313603, 2.2182882881350894} {
		o := DefaultClusterSweepOptions()
		o.BaseRate = rate
		if _, err := o.runCell(o.Nodes, o.CacheBytes, cluster.PolicyLeastLoaded, "reclaim"); err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
	}
}

func quickSweepOptions() ClusterSweepOptions {
	o := DefaultClusterSweepOptions()
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.Functions = 120
	o.CacheBytes = 128 << 20
	o.Modes = []string{"vanilla", "reclaim"}
	o.GridNodes = []int{2, 4}
	o.GridCache = []int64{64 << 20, 128 << 20}
	return o
}

func sweepCSV(t testing.TB, o ClusterSweepOptions) string {
	t.Helper()
	res, err := RunClusterSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	return buf.String()
}

// TestClusterSweepParallelInvariance pins the family's determinism
// surface: the full sweep CSV — every policy, every mode, the grid —
// must be byte-identical at -parallel 1 and 8.
func TestClusterSweepParallelInvariance(t *testing.T) {
	o := quickSweepOptions()
	o.Parallel = 1
	want := sweepCSV(t, o)
	o.Parallel = 8
	if got := sweepCSV(t, o); got != want {
		t.Fatalf("parallel=8 diverged from serial:\n%s\nserial:\n%s", got, want)
	}
}

// TestClusterSweepGolden runs the committed 16-node sweep and pins its
// CSV, then asserts the headline claim on the committed numbers:
// frozen-garbage-aware packing beats random placement on fleet-wide
// cold-boot rate or p99.
func TestClusterSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-node sweep is slow")
	}
	res, err := RunClusterSweep(DefaultClusterSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	checkE2EGolden(t, "golden_cluster_sweep.csv", buf.Bytes())

	ga, ok1 := res.Cell(cluster.PolicyGarbageAware, "reclaim")
	rnd, ok2 := res.Cell(cluster.PolicyRandom, "reclaim")
	if !ok1 || !ok2 {
		t.Fatal("sweep missing garbage-aware or random reclaim cell")
	}
	if !(ga.ColdBootRate() < rnd.ColdBootRate() || ga.Fleet.Quantile(0.99) < rnd.Fleet.Quantile(0.99)) {
		t.Fatalf("garbage-aware (cold-boot %.4f, p99 %.1f) does not beat random (cold-boot %.4f, p99 %.1f)",
			ga.ColdBootRate(), ga.Fleet.Quantile(0.99),
			rnd.ColdBootRate(), rnd.Fleet.Quantile(0.99))
	}
}

// TestClusterSweepCapacityMonotone sanity-checks the committed curve's
// planning semantics on the quick grid: at fixed node count, more RAM
// never hurts the cold-boot rate by more than noise, and the CSV
// parses back with one row per cell.
func TestClusterSweepCapacityMonotone(t *testing.T) {
	o := quickSweepOptions()
	res, err := RunClusterSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid) != len(o.GridNodes)*len(o.GridCache) {
		t.Fatalf("grid has %d cells, want %d", len(res.Grid), len(o.GridNodes)*len(o.GridCache))
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	rows := 0
	for _, ln := range lines {
		if strings.HasPrefix(ln, "#") || strings.HasPrefix(ln, "policy,") || strings.HasPrefix(ln, "nodes,") {
			continue
		}
		rows++
		if got := strings.Count(ln, ","); got != 8 {
			t.Fatalf("row %q has %d commas, want 8", ln, got)
		}
	}
	want := len(res.Cells) + len(res.Grid)
	if rows != want {
		t.Fatalf("CSV has %d data rows, want %d", rows, want)
	}
	// For each node count, the largest cache's cold-boot rate must not
	// exceed the smallest cache's: RAM buys warm starts.
	for _, nodes := range o.GridNodes {
		var small, large float64 = -1, -1
		for _, pt := range res.Grid {
			if pt.Nodes != nodes {
				continue
			}
			if pt.CacheBytes == o.GridCache[0] {
				small = pt.Res.ColdBootRate()
			}
			if pt.CacheBytes == o.GridCache[len(o.GridCache)-1] {
				large = pt.Res.ColdBootRate()
			}
		}
		if small < 0 || large < 0 {
			t.Fatalf("grid missing cache extremes for %d nodes", nodes)
		}
		if large > small {
			t.Fatalf("%d nodes: cold-boot rate rose with more RAM (%.4f -> %.4f)", nodes, small, large)
		}
	}
}
