// Property sweep: many seeded random workload+fault plans per manager
// mode, with the cross-layer invariant checker attached to every run.
// The test lives in an external package so it can drive scenarios
// through internal/chaos while chaos itself never imports invariant.
package invariant_test

import (
	"fmt"
	"testing"

	"desiccant/internal/chaos"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/invariant"
	"desiccant/internal/sim"
)

// propSeeds is the number of random fault plans swept per manager
// mode. The acceptance bar is 50+.
const propSeeds = 50

// propOptions builds one randomized scenario: the seed perturbs not
// just the fault schedule but the scenario shape itself, so the sweep
// covers different load levels, cache pressures, and fault mixes.
func propOptions(seed uint64, mode chaos.ManagerMode) chaos.ScenarioOptions {
	shape := sim.NewRNG(seed ^ 0x5eedf00dcafe17)
	o := chaos.DefaultScenarioOptions(seed)
	o.Mode = mode
	o.Window = 20 * sim.Second
	o.Requests = 60 + shape.Intn(90)
	o.CacheBytes = (256 + int64(shape.Intn(512))) << 20
	o.Chaos.Intensity = 0.25 + shape.Float64()*0.75
	o.Bursts = shape.Intn(3)
	o.BurstSize = 4 + shape.Intn(12)
	o.SwapSqueezes = shape.Intn(4)
	return o
}

// runChecked executes one scenario with the checker attached and
// returns the checker plus the result.
func runChecked(o chaos.ScenarioOptions) (*invariant.Checker, *chaos.Result) {
	var chk *invariant.Checker
	o.Observe = func(p *faas.Platform, mgr *core.Manager) {
		chk = invariant.Attach(p, mgr)
	}
	res, err := chaos.RunScenario(o)
	if err != nil {
		panic(err) // propOptions draws only valid options
	}
	return chk, res
}

func TestPropInvariantsHoldUnderFaults(t *testing.T) {
	for _, mode := range []chaos.ManagerMode{chaos.ManagerOff, chaos.ManagerReclaim, chaos.ManagerSwap} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			swept := int64(0)
			for seed := uint64(1); seed <= propSeeds; seed++ {
				chk, res := runChecked(propOptions(seed, mode))
				if v := chk.Final(); len(v) != 0 {
					t.Fatalf("seed %d mode %s: %d invariant violations (reproduce with this seed):\n%s",
						seed, mode, len(v), joinLines(v))
				}
				if len(res.AuditErrors) != 0 {
					t.Fatalf("seed %d mode %s: machine audit failed: %v", seed, mode, res.AuditErrors)
				}
				swept += chk.Sweeps()
			}
			if swept == 0 {
				t.Fatalf("mode %s: checker never swept — no events triggered it", mode)
			}
		})
	}
}

// TestPropFaultSchedulesReproducible pins that a seed fully determines
// a faulty run: re-running any sampled seed gives the same
// fingerprint, so a failure report's seed is always actionable.
func TestPropFaultSchedulesReproducible(t *testing.T) {
	for _, mode := range []chaos.ManagerMode{chaos.ManagerReclaim, chaos.ManagerSwap} {
		for seed := uint64(1); seed <= 5; seed++ {
			o := propOptions(seed, mode)
			a := mustRun(t, o).Fingerprint()
			b := mustRun(t, o).Fingerprint()
			if a != b {
				t.Fatalf("seed %d mode %s: irreproducible run:\n%s\nvs\n%s", seed, mode, a, b)
			}
		}
	}
}

// mustRun runs a scenario whose options must validate.
func mustRun(t *testing.T, o chaos.ScenarioOptions) *chaos.Result {
	t.Helper()
	res, err := chaos.RunScenario(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func joinLines(v []string) string {
	out := ""
	for _, s := range v {
		out += fmt.Sprintf("  %s\n", s)
	}
	return out
}
