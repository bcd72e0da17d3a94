package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
)

func quickFleetOptions() cluster.Options {
	o := fleetOptions(Options{})
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.Functions = 120
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

// TestFleetCSVPin pins the test-size fleet replay's full CSV to the
// byte. The hash was captured from the sharded runner that preceded
// the single engine, where the CSV was equal at every shard count.
func TestFleetCSVPin(t *testing.T) {
	got := fleetCSV(t, quickFleetOptions())
	const want = "c1962e10e8c2f3c276ffea0648180a8442cd2f9a8b518591268e2d527401ec54"
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != want {
		t.Fatalf("fleet CSV sha256 %s, want %s:\n%s", sum, want, got)
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

// TestFleetSeedSweep runs a small fleet across many seeds, each of
// which must pass the router/node consistency check (fleetCSV).
func TestFleetSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	o := quickFleetOptions()
	o.Nodes = 3
	o.Window = 4 * sim.Second
	o.Functions = 60
	for seed := uint64(1); seed <= 50; seed++ {
		o.Seed = seed
		fleetCSV(t, o)
	}
}
