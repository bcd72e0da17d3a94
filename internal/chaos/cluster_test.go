package chaos_test

// The cluster kill-plan's differential-robustness contract, tested
// from outside the package (like the invariant sweep) so the test can
// drive internal/cluster without chaos importing it in its tests.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"desiccant/internal/chaos"
	"desiccant/internal/cluster"
	"desiccant/internal/sim"
)

func clusterOptions() cluster.Options {
	o := cluster.DefaultOptions()
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.Functions = 120
	o.Migration = cluster.Migration{}
	o.ZipfSkew = 0
	return o
}

func runSummary(t *testing.T, o cluster.Options) string {
	t.Helper()
	res, err := cluster.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteSummary(&buf)
	return buf.String()
}

// TestClusterZeroIntensityIsNoOp pins the contract: a zero-intensity
// plan is empty, and a run wired with it is byte-identical to a run
// with no plan at all.
func TestClusterZeroIntensityIsNoOp(t *testing.T) {
	o := clusterOptions()
	plan := chaos.KillPlan{Seed: 7, Intensity: 0, Nodes: o.Nodes, Window: o.Window}
	kills := plan.Kills()
	if len(kills) != 0 {
		t.Fatalf("zero intensity produced %d kills", len(kills))
	}
	base := runSummary(t, o)
	o.Kills = kills
	if got := runSummary(t, o); got != base {
		t.Fatalf("zero-intensity plan changed the run:\n%s\nvs:\n%s", got, base)
	}
}

// TestClusterKillPlanDeterministic pins that a seed fully determines
// the schedule and the faulted run: same seed, same bytes; and the
// schedule never decommissions the whole fleet.
func TestClusterKillPlanDeterministic(t *testing.T) {
	o := clusterOptions()
	killed := 0
	for seed := uint64(1); seed <= 10; seed++ {
		plan := chaos.KillPlan{Seed: seed, Intensity: 0.6, Nodes: o.Nodes, Window: o.Window}
		kills := plan.Kills()
		again := plan.Kills()
		if len(kills) != len(again) {
			t.Fatalf("seed %d: schedule not reproducible: %v vs %v", seed, kills, again)
		}
		for i := range kills {
			if kills[i] != again[i] {
				t.Fatalf("seed %d: schedule not reproducible: %v vs %v", seed, kills, again)
			}
		}
		if len(kills) >= o.Nodes {
			t.Fatalf("seed %d: plan decommissions the whole fleet: %v", seed, kills)
		}
		killed += len(kills)
	}
	if killed == 0 {
		t.Fatal("ten seeds at intensity 0.6 never killed a node")
	}
}

// TestClusterKillPlanDrainsDeterministically replays a faulted run
// twice: the router drains and re-places the dead nodes' warm
// instances identically every time, and the summary matches the hash
// captured from the sharded runner that preceded the single engine.
func TestClusterKillPlanDrainsDeterministically(t *testing.T) {
	o := clusterOptions()
	o.Policy = cluster.PolicyGarbageAware
	var plan chaos.KillPlan
	for seed := uint64(1); ; seed++ {
		plan = chaos.KillPlan{Seed: seed, Intensity: 0.6, Nodes: o.Nodes, Window: o.Window}
		if len(plan.Kills()) > 0 {
			break
		}
	}
	o.Kills = plan.Kills()
	first := runSummary(t, o)
	if second := runSummary(t, o); second != first {
		t.Fatalf("faulted run not reproducible:\n%s\nvs:\n%s", first, second)
	}
	const want = "eca3a7bfa434a3f56ef23ea030db4468a98b5902e935a96871fcc0092d9256dd"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(first))); got != want {
		t.Fatalf("faulted summary sha256 %s, want %s:\n%s", got, want, first)
	}
	res, err := cluster.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != len(o.Kills) {
		t.Fatalf("router saw %d deaths for %d kills", res.Deaths, len(o.Kills))
	}
	if res.MigratedOut == 0 && res.DrainEvicted == 0 {
		t.Fatal("decommission drained nothing anywhere in the fleet")
	}
}
