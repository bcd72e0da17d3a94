// Package cluster simulates a FaaS fleet: N machines — each a full
// osmem.Machine + faas.Platform + Desiccant manager — behind a
// front-door router with a pluggable placement policy, all on one
// sim.Engine. Nodes periodically ship pressure samples to the router
// over the modeled network hop; the router uses the aggregated view to
// place requests, order cross-machine migrations off hot nodes, and
// route new functions around machines mid-reclaim.
//
// Everything is deterministic: policies draw from forked sim.RNG
// streams, and every router/node interaction is a message filed as a
// plain engine event, so it fires in the engine's (time, scheduling
// order).
package cluster

import (
	"fmt"
	"math"

	"desiccant/internal/core"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

// Migration configures the router's hot-node relief valve. When a
// node reports a frozen-cache occupancy at or above HighFrac, the
// router orders it to hand its coldest instances to the
// least-pressured node reporting at or below LowFrac. A zero HighFrac
// disables migration.
type Migration struct {
	// HighFrac is the source threshold on MemoryUsedFraction; 0
	// disables migration.
	HighFrac float64
	// LowFrac is the destination ceiling: only nodes at or below it
	// (and not mid-reclaim) receive migrations.
	LowFrac float64
}

// validate rejects thresholds no occupancy fraction can be compared
// against: NaN, infinite or negative.
func (m Migration) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"HighFrac", m.HighFrac}, {"LowFrac", m.LowFrac}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("cluster: Migration.%s must be a finite non-negative fraction, got %v", f.name, f.v)
		}
	}
	return nil
}

// The fleet's fixed settings.
const (
	// routeLatency is the modeled network hop between router and
	// nodes.
	routeLatency = 2 * sim.Millisecond
	// reportEvery is the pressure-sample cadence of every node, when
	// the policy or migration reads the view (Options.reports).
	reportEvery = 500 * sim.Millisecond
	// migrationLatency is the modeled hand-off time per migrated
	// instance (snapshot shipping).
	migrationLatency = 10 * sim.Millisecond
	// drainWindow is how long the engine runs past the window end, so
	// in-flight invocations, their acks and in-flight migrations land.
	drainWindow = 240 * sim.Second
	// migrationBatch is how many instances one migration order moves.
	migrationBatch = 2
	// migrationCooldown is the minimum sim-time between migration
	// orders to the same source node, so one hot report burst does not
	// empty the node.
	migrationCooldown = 2 * sim.Second
)

// DefaultMigration returns the sweep's migration parameters.
func DefaultMigration() Migration {
	return Migration{HighFrac: 0.85, LowFrac: 0.5}
}

// Options parameterizes one cluster replay.
type Options struct {
	// Nodes is the number of worker machines (indexes 1..Nodes;
	// index 0 is the router).
	Nodes int
	// Window is the replayed duration.
	Window sim.Duration
	// Scale is the trace scale factor.
	Scale float64
	// Synthetic is the replayed trace. Its Seed+2 also seeds the
	// placement policy's RNG stream.
	trace.Synthetic
	// CacheBytes is each node's frozen-instance cache size.
	CacheBytes int64
	// ZipfSkew reshapes function popularity: rate ∝ rank^-ZipfSkew
	// over a seeded rank permutation. 0 keeps the trace's native
	// log-normal popularity.
	ZipfSkew float64
	// Policy selects the placement policy; see PolicyNames.
	Policy string
	// Mode selects the per-node memory manager: "vanilla" (none),
	// "reclaim" (Desiccant) or "swap" (the §4.5.2 baseline).
	Mode string
	// Migration configures hot-node instance hand-off.
	Migration Migration
	// ObserveNode, when set, is called once per node after the node is
	// wired but before its manager starts and the replay begins, so a
	// bus subscriber sees every event the node emits. Nodes are built
	// in index order, so the k-th call observes node k. It is the one
	// place invariant checkers and span builders attach to a fleet.
	ObserveNode core.Observer
}

// DefaultOptions returns the 16-node sweep configuration: Zipfian
// popularity over the ext-fleet trace profile, garbage-aware packing,
// Desiccant reclaiming on every node, migration armed.
func DefaultOptions() Options {
	return Options{
		Nodes:      16,
		Window:     60 * sim.Second,
		Scale:      15,
		Synthetic:  trace.Synthetic{Seed: 11, Functions: 400, BaseRate: 2.2},
		CacheBytes: 2 << 30,
		ZipfSkew:   0.9,
		Policy:     PolicyGarbageAware,
		Mode:       "reclaim",
		Migration:  DefaultMigration(),
	}
}

// validate rejects options no replay can run, with an error naming
// the field.
func (o Options) validate() error {
	if o.Nodes < 1 {
		return fmt.Errorf("cluster: Nodes must be at least 1, got %d", o.Nodes)
	}
	if o.Window <= 0 {
		return fmt.Errorf("cluster: Window must be positive, got %v", o.Window)
	}
	if o.CacheBytes <= 0 {
		return fmt.Errorf("cluster: CacheBytes must be positive, got %d", o.CacheBytes)
	}
	if err := o.Migration.validate(); err != nil {
		return err
	}
	if err := o.Synthetic.Validate(nil, o.ZipfSkew, o.Scale); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if !knownPolicy(o.Policy) {
		return fmt.Errorf("cluster: unknown policy %q (want one of %v)", o.Policy, PolicyNames)
	}
	if _, err := managerConfig(o.Mode); err != nil {
		return err
	}
	if o.Migration.HighFrac > 0 && o.Migration.LowFrac >= o.Migration.HighFrac {
		return fmt.Errorf("cluster: Migration.LowFrac %v must be below Migration.HighFrac %v", o.Migration.LowFrac, o.Migration.HighFrac)
	}
	return nil
}

// reports reports whether the nodes sample pressure every reportEvery:
// only when the policy or migration reads the view, so the static
// pinned configuration runs with no reports at all, preserving the
// original ext-fleet behavior byte for byte.
func (o Options) reports() bool {
	return policyNeedsView(o.Policy) || o.Migration.HighFrac > 0
}

// dynamic reports whether routing happens at sim time on the router
// (placement consults the live pressure view, requests pay the
// route hop) rather than statically at schedule time. The static path
// exists for one reason: with the pinned policy and no migration it
// reproduces the original ext-fleet replay byte for byte.
func (o Options) dynamic() bool {
	return o.Policy != PolicyPinned || o.Migration.HighFrac > 0
}

// managerConfig maps a mode name to the per-node manager config; nil
// means no manager ("vanilla").
func managerConfig(mode string) (*core.Config, error) {
	switch mode {
	case "vanilla":
		return nil, nil
	case "reclaim":
		c := core.DefaultConfig()
		return &c, nil
	case "swap":
		c := core.DefaultConfig()
		c.Mode = core.ModeSwap
		return &c, nil
	default:
		return nil, fmt.Errorf("cluster: unknown mode %q (want vanilla, reclaim or swap)", mode)
	}
}

// Modes lists the per-node manager modes the sweep iterates.
var Modes = []string{"vanilla", "reclaim", "swap"}
