package cluster

import (
	"fmt"

	"desiccant/internal/sim"
)

// NodeView is the router's last-received picture of one node, built
// entirely from pressure reports (plus its own routed/acked
// bookkeeping). It is always stale by at least routeLatency — the
// router acts on what the reports delivered, never on node state
// directly.
type NodeView struct {
	// CommittedPages is the node machine's resident page count.
	CommittedPages int64
	// MemFrac is the frozen cache occupancy fraction — Desiccant's
	// activation signal, exported fleet-wide.
	MemFrac float64
	// ActiveReclaims is the node manager's in-flight reclamation
	// count; garbage-aware placement routes new functions around
	// nodes mid-reclaim.
	ActiveReclaims int
	// QueueLen is the platform's pending-request queue length.
	QueueLen int
}

// View is the cluster-level pressure signal handed to placement
// policies. Slices are indexed like the cluster: entry 0 is the
// router and never a placement target.
type View struct {
	Nodes []NodeView
	// Routed counts requests the router sent to each node; Acked
	// counts completions acked back. Routed[d]-Acked[d] is the
	// router's picture of the node's outstanding work.
	Routed []int64
	Acked  []int64
}

// NewView returns a view over n unreported worker nodes.
func NewView(n int) *View {
	return &View{
		Nodes:  make([]NodeView, n+1),
		Routed: make([]int64, n+1),
		Acked:  make([]int64, n+1),
	}
}

// Size returns the worker-node count.
func (v *View) Size() int { return len(v.Nodes) - 1 }

// Outstanding returns routed-but-not-acked requests for node d.
func (v *View) Outstanding(d int) int64 { return v.Routed[d] - v.Acked[d] }

// PlacementPolicy picks a destination node for each request. Place
// returns a node index in [1, v.Size()] and must be a pure function
// of the view, the policy's own state, and its forked RNG stream —
// nothing wall-clock.
type PlacementPolicy interface {
	Place(fn string, v *View) int
}

// affinityMover is implemented by policies that track per-function
// homes; the router tells them when a migration moved a function's
// frozen instance so future requests follow it.
type affinityMover interface {
	Moved(fn string, to int)
}

// Policy names.
const (
	PolicyPinned       = "pinned"
	PolicyRandom       = "random"
	PolicyLeastLoaded  = "least-loaded"
	PolicyGarbageAware = "garbage-aware"
)

// PolicyNames lists every placement policy in sweep order.
var PolicyNames = []string{PolicyPinned, PolicyRandom, PolicyLeastLoaded, PolicyGarbageAware}

func knownPolicy(name string) bool {
	for _, n := range PolicyNames {
		if n == name {
			return true
		}
	}
	return false
}

// policyNeedsView reports whether the policy reads pressure reports
// (and so requires a report cadence).
func policyNeedsView(name string) bool {
	return name == PolicyLeastLoaded || name == PolicyGarbageAware
}

// PolicyByName constructs a policy. rng is the policy's private
// stream; only random draws from it.
func PolicyByName(name string, rng *sim.RNG) (PlacementPolicy, error) {
	switch name {
	case PolicyPinned:
		return NewPinned(), nil
	case PolicyRandom:
		return NewRandom(rng), nil
	case PolicyLeastLoaded:
		return NewLeastLoaded(), nil
	case PolicyGarbageAware:
		return NewGarbageAware(), nil
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (want one of %v)", name, PolicyNames)
}

// Pinned pins each function to a node on first sight in round-robin
// order — the original fleetRouter behavior, preserved so the static
// configuration reproduces ext-fleet byte for byte. Placement depends
// only on first-sight order, never on the pressure view.
type Pinned struct {
	assign map[string]int
	next   int
}

// NewPinned returns the round-robin first-sight policy.
func NewPinned() *Pinned { return &Pinned{assign: make(map[string]int), next: 1} }

// Place implements PlacementPolicy.
func (p *Pinned) Place(fn string, v *View) int {
	if d, ok := p.assign[fn]; ok {
		return d
	}
	d := p.next
	p.next = p.next%v.Size() + 1
	p.assign[fn] = d
	return d
}

// Random scatters every request uniformly over the nodes from its
// forked RNG stream — no affinity at all, the capacity sweep's
// pessimal baseline.
type Random struct{ rng *sim.RNG }

// NewRandom returns the uniform-random policy over the given stream.
func NewRandom(rng *sim.RNG) *Random { return &Random{rng: rng} }

// Place implements PlacementPolicy.
func (r *Random) Place(fn string, v *View) int { return 1 + r.rng.Intn(v.Size()) }

// LeastLoaded places each request on the node with the fewest
// committed physical pages per the last reports, breaking ties by
// outstanding routed requests and then node index. Before the first
// reports arrive every node ties at zero, so early placement degrades
// to outstanding-count spreading.
type LeastLoaded struct{}

// NewLeastLoaded returns the committed-pages policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Place implements PlacementPolicy.
func (l *LeastLoaded) Place(fn string, v *View) int {
	best := 1
	for d := 2; d < len(v.Nodes); d++ {
		nv, bv := v.Nodes[d], v.Nodes[best]
		switch {
		case nv.CommittedPages != bv.CommittedPages:
			if nv.CommittedPages < bv.CommittedPages {
				best = d
			}
		case v.Outstanding(d) < v.Outstanding(best):
			best = d
		}
	}
	return best
}

// garbageHotFrac is the packing ceiling: a node whose frozen cache is
// this full no longer receives new functions.
const garbageHotFrac = 0.7

// GarbageAware is the frozen-garbage-aware packing policy. Functions
// keep node affinity (a warm instance is worth far more than any
// load-balancing), the router re-homes the affinity when a migration
// moves the instance, and *new* functions are packed onto the
// fullest node that is below the hot ceiling and not mid-reclaim —
// consolidating frozen garbage where Desiccant is already paying
// attention while keeping the rest of the fleet as cold-start
// headroom, and routing around machines whose manager is mid-reclaim.
type GarbageAware struct {
	assign map[string]int
}

// NewGarbageAware returns the packing policy.
func NewGarbageAware() *GarbageAware {
	return &GarbageAware{assign: make(map[string]int)}
}

// Moved implements affinityMover: future requests follow the migrated
// instance.
func (g *GarbageAware) Moved(fn string, to int) { g.assign[fn] = to }

// Place implements PlacementPolicy.
func (g *GarbageAware) Place(fn string, v *View) int {
	if d, ok := g.assign[fn]; ok {
		return d
	}
	// Pack: fullest node below the hot ceiling with no reclamation in
	// flight. Equal fractions (all zero before the first reports) fall
	// back to outstanding-count spreading.
	best := 0
	for d := 1; d < len(v.Nodes); d++ {
		nv := v.Nodes[d]
		if nv.ActiveReclaims > 0 || nv.MemFrac >= garbageHotFrac {
			continue
		}
		if best == 0 {
			best = d
			continue
		}
		bv := v.Nodes[best]
		switch {
		case nv.MemFrac != bv.MemFrac:
			if nv.MemFrac > bv.MemFrac {
				best = d
			}
		case v.Outstanding(d) < v.Outstanding(best):
			best = d
		}
	}
	if best == 0 {
		// Everything hot or mid-reclaim: least-pressured node.
		best = 1
		for d := 2; d < len(v.Nodes); d++ {
			if v.Nodes[d].MemFrac < v.Nodes[best].MemFrac {
				best = d
			}
		}
	}
	g.assign[fn] = best
	return best
}
