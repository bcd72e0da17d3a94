package experiments

import (
	"bytes"
	"testing"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
)

func quickFleetOptions() cluster.Options {
	o := fleetOptions(Options{})
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.TraceFunctions = 120
	return o
}

func fleetCSV(t testing.TB, o cluster.Options) string {
	t.Helper()
	res, err := cluster.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeFleetCSV(&buf, res)
	return buf.String()
}

// TestFleetShardInvariance is the experiment-level determinism check:
// the fleet replay's full CSV must be byte-identical at every shard
// count, including counts above the domain count (clamped).
func TestFleetShardInvariance(t *testing.T) {
	o := quickFleetOptions()
	o.Shards = 1
	want := fleetCSV(t, o)
	for _, shards := range []int{2, 4, 8} {
		o.Shards = shards
		if got := fleetCSV(t, o); got != want {
			t.Fatalf("shards=%d output diverged from serial:\n%s\nserial:\n%s", shards, got, want)
		}
	}
}

// TestFleetRouting pins the router's bookkeeping: work actually lands
// on every machine, completions flow, and acks cross back.
func TestFleetRouting(t *testing.T) {
	res, err := cluster.Run(quickFleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.Acks == 0 {
		t.Fatal("no completions acked to the router")
	}
	for _, row := range res.Rows {
		if row.Functions == 0 {
			t.Fatalf("machine %d received no functions (round-robin broken)", row.Node)
		}
		if row.Completions == 0 {
			t.Fatalf("machine %d completed nothing", row.Node)
		}
	}
	if res.Fleet.Quantile(0.99) <= 0 {
		t.Fatalf("fleet p99 = %v, want positive", res.Fleet.Quantile(0.99))
	}
}

// TestFleetSeedSweep runs a small fleet across many seeds comparing
// serial against sharded output byte for byte — the experiment-level
// cousin of the sim package's shard property tests.
func TestFleetSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	o := quickFleetOptions()
	o.Nodes = 3
	o.Window = 4 * sim.Second
	o.TraceFunctions = 60
	for seed := uint64(1); seed <= 50; seed++ {
		o.TraceSeed = seed
		o.Shards = 1
		want := fleetCSV(t, o)
		o.Shards = 3
		if got := fleetCSV(t, o); got != want {
			t.Fatalf("seed %d: sharded output diverged from serial:\n%s\nserial:\n%s", seed, got, want)
		}
	}
}
