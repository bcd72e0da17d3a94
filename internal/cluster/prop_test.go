package cluster

// Property sweep: many seeds × every policy with the cross-layer
// invariant checker attached to every node's platform. Each seed also
// perturbs the shape knobs (cache size, Zipf skew, migration
// thresholds) so the sweep walks the protocol space, not one
// trajectory 25 times. A failure names the
// reproducing seed and policy.

import (
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/invariant"
	"desiccant/internal/sim"
)

const propSeeds = 25

// propOptions derives a scenario from (seed, policy): the seed is both
// the trace seed and the shape of the cluster around it.
func propOptions(seed uint64, policy string) Options {
	shape := sim.NewRNG(seed).Fork(0x636c7573746572) // "cluster"
	o := DefaultOptions()
	o.Nodes = 4
	o.Window = 6 * sim.Second
	o.Functions = 60 + shape.Intn(60)
	o.Seed = seed
	o.Policy = policy
	o.CacheBytes = (32 + int64(shape.Intn(64))) << 20
	o.ZipfSkew = shape.Float64() * 1.2
	o.Migration = DefaultMigration()
	o.Migration.HighFrac = 0.4 + shape.Float64()*0.4
	o.Migration.LowFrac = o.Migration.HighFrac - 0.1
	return o
}

func TestPropInvariantsHoldAcrossCluster(t *testing.T) {
	seeds := uint64(propSeeds)
	if testing.Short() {
		seeds = 5
	}
	for _, policy := range PolicyNames {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			swept := int64(0)
			for seed := uint64(1); seed <= seeds; seed++ {
				o := propOptions(seed, policy)
				var checkers []*invariant.Checker
				o.ObserveNode = func(p *faas.Platform, mgr *core.Manager) {
					checkers = append(checkers, invariant.Attach(p, mgr))
				}
				res, err := Run(o)
				if err != nil {
					t.Fatalf("seed %d policy %s: %v", seed, policy, err)
				}
				if err := res.CheckConsistency(); err != nil {
					t.Fatalf("seed %d policy %s: %v", seed, policy, err)
				}
				for node, chk := range checkers {
					if v := chk.Final(); len(v) != 0 {
						t.Fatalf("seed %d policy %s node %d: %d invariant violations (reproduce with this seed and policy):\n%s",
							seed, policy, node, len(v), strings.Join(v, "\n"))
					}
					swept += chk.Sweeps()
				}
			}
			if swept == 0 {
				t.Fatalf("policy %s: checkers never swept — no events triggered them", policy)
			}
		})
	}
}

// TestPropCensusAcrossMigrations pins the fleet-wide instance census:
// over seeds that force heavy migration, detaches always equal
// adoptions plus recorded errors (none expected).
func TestPropCensusAcrossMigrations(t *testing.T) {
	seeds := uint64(propSeeds)
	if testing.Short() {
		seeds = 5
	}
	migrated := int64(0)
	for seed := uint64(1); seed <= seeds; seed++ {
		o := propOptions(seed, PolicyGarbageAware)
		o.Migration.HighFrac = 0.35
		o.Migration.LowFrac = 0.3
		res, err := Run(o)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.AdoptErrs) != 0 {
			t.Fatalf("seed %d: adoptions failed: %v", seed, res.AdoptErrs)
		}
		migrated += res.MigratedOut
	}
	if migrated == 0 {
		t.Fatal("sweep never migrated an instance — thresholds too loose to test anything")
	}
}
