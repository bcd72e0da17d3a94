package cluster

import (
	"fmt"

	"desiccant/internal/metrics"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Router is the fleet's front door, at cluster index 0. It implements
// trace.Submitter; in dynamic mode every arrival becomes a router
// event that consults the pressure view before dispatching over the
// route hop, while in static mode (pinned policy, no migration)
// placement happens at schedule time exactly as the original ext-fleet
// router did.
type Router struct {
	c       *Cluster
	eng     *sim.Engine
	policy  PlacementPolicy
	view    *View
	dynamic bool

	submitted int64
	acks      int64
	fleetHist *metrics.Histogram
	// seen tracks the distinct functions routed to each node (indexed
	// like the cluster) — the "functions" column of the result rows.
	seen []map[string]bool

	reports   int64
	migOrders int64
	moves     int64
	lastOrder []sim.Time

	// violations records router-side bookkeeping breaches (a node
	// acked more than it was routed, an ack from a node never routed
	// to); CheckConsistency surfaces them.
	violations []string
}

const maxRouterViolations = 32

func newRouter(c *Cluster, policy PlacementPolicy, dynamic bool) *Router {
	seen := make([]map[string]bool, c.opts.Nodes+1)
	for d := 1; d <= c.opts.Nodes; d++ {
		seen[d] = make(map[string]bool)
	}
	return &Router{
		c:         c,
		eng:       c.eng,
		policy:    policy,
		view:      NewView(c.opts.Nodes),
		dynamic:   dynamic,
		fleetHist: metrics.NewHistogram(latencyBounds()...),
		seen:      seen,
		lastOrder: make([]sim.Time, c.opts.Nodes+1),
	}
}

// Submit implements trace.Submitter. The replayer calls it while
// scheduling, before the engines run.
func (rt *Router) Submit(spec *workload.Spec, t sim.Time) {
	rt.submitted++
	if !rt.dynamic {
		d := rt.policy.Place(spec.Name, rt.view)
		rt.noteRoute(d, spec.Name)
		rt.c.nodes[d].platform.Submit(spec, t)
		return
	}
	rt.eng.At(t, "cluster:route", func() { rt.route(spec, t) })
}

// route places one arrival at sim time against the current view and
// dispatches it to the node after the route hop.
func (rt *Router) route(spec *workload.Spec, t sim.Time) {
	d := rt.policy.Place(spec.Name, rt.view)
	rt.noteRoute(d, spec.Name)
	rt.c.dispatch(d, spec, t.Add(routeLatency))
}

func (rt *Router) noteRoute(d int, fn string) {
	rt.view.Routed[d]++
	rt.seen[d][fn] = true
}

// onAck folds one completion into the fleet histogram and the
// router's outstanding bookkeeping. Queue-depth monotonicity — acked
// never overtaking routed — is checked on every ack, the router-side
// half of the instance-census invariant.
func (rt *Router) onAck(src int, latMillis float64) {
	rt.acks++
	rt.fleetHist.Add(latMillis)
	rt.view.Acked[src]++
	if rt.view.Acked[src] > rt.view.Routed[src] {
		rt.violate("node %d acked %d > routed %d", src-1, rt.view.Acked[src], rt.view.Routed[src])
	}
}

// onReport folds a node's pressure sample into the view and lets the
// migration controller react.
func (rt *Router) onReport(src int, nv NodeView) {
	rt.reports++
	rt.view.Nodes[src] = nv
	rt.maybeMigrate(src)
}

// onMoved re-homes a function's affinity after a migration hand-off.
func (rt *Router) onMoved(fn string, dst int) {
	rt.moves++
	if m, ok := rt.policy.(affinityMover); ok {
		m.Moved(fn, dst)
	}
}

// maybeMigrate is the cluster-level relief valve, run entirely on the
// router against the merged view: when the reporting node is
// hot, order it to hand its coldest instances to the least-pressured
// cold node. Per-source cooldown keeps one hot spell from emptying
// the node before the first hand-off even lands.
func (rt *Router) maybeMigrate(src int) {
	m := rt.c.opts.Migration
	if m.HighFrac <= 0 {
		return
	}
	nv := rt.view.Nodes[src]
	if nv.MemFrac < m.HighFrac {
		return
	}
	now := rt.eng.Now()
	if rt.lastOrder[src] > 0 && now < rt.lastOrder[src].Add(migrationCooldown) {
		return
	}
	dst := 0
	for d := 1; d < len(rt.view.Nodes); d++ {
		dv := rt.view.Nodes[d]
		if d == src || dv.ActiveReclaims > 0 || dv.MemFrac > m.LowFrac {
			continue
		}
		if dst == 0 || dv.MemFrac < rt.view.Nodes[dst].MemFrac {
			dst = d
		}
	}
	if dst == 0 {
		return
	}
	rt.lastOrder[src] = now
	rt.migOrders++
	rt.orderMigration(src, dst)
}

// orderMigration ships the order to the source node; the node picks
// the victims against its live state.
func (rt *Router) orderMigration(src, dst int) {
	rt.eng.At(rt.eng.Now().Add(routeLatency), "cluster:migrate", func() {
		rt.c.nodes[src].migrateOut(dst)
	})
}

func (rt *Router) violate(format string, args ...interface{}) {
	if len(rt.violations) >= maxRouterViolations {
		return
	}
	rt.violations = append(rt.violations,
		fmt.Sprintf("%v ", rt.eng.Now())+fmt.Sprintf(format, args...))
}
