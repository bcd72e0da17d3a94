package cluster

import (
	"desiccant/internal/metrics"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// latencyBounds is the shared bucket layout for the router's
// fleet-wide histogram and each node's local histogram, in ms
// (1ms .. ~32s) — unchanged from the original ext-fleet layout.
func latencyBounds() []float64 { return metrics.ExponentialBounds(1, 2, 16) }

// Cluster is one wired fleet on one engine: the router at index 0 and
// a node at each index 1..Nodes (nodes[0] is nil). Router and nodes
// only learn about each other through messages filed with
// eng.Deliver(src, …), whose (source index, send order) key orders
// same-instant messages independently of how the senders' own events
// interleaved — the migration protocol depends on it. Every
// message closure reaches its target as nodes[dst], and node d's state
// is only touched by events addressed to node d.
type Cluster struct {
	opts   Options
	eng    *sim.Engine
	router *Router
	nodes  []*Node
}

// dispatch forwards a placed request to its node over the route hop.
func (c *Cluster) dispatch(d int, spec *workload.Spec, at sim.Time) {
	c.eng.Deliver(0, at, "cluster:submit", func() {
		c.nodes[d].deliver(spec)
	})
}

// Run replays the trace across the router plus Nodes platforms on one
// engine and returns the fleet-wide measurement. The run is
// deterministic: identical options produce identical results byte for
// byte.
func Run(o Options) (*Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	mcfg, err := managerConfig(o.Mode)
	if err != nil {
		return nil, err
	}
	policy, err := PolicyByName(o.Policy, sim.NewRNG(o.Seed+2))
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	c := &Cluster{opts: o, eng: eng, nodes: make([]*Node, o.Nodes+1)}
	for d := 1; d <= o.Nodes; d++ {
		if c.nodes[d], err = newNode(c, d, mcfg); err != nil {
			return nil, err
		}
	}
	c.router = newRouter(c, policy, o.dynamic())

	end := sim.Time(o.Window)
	for d := 1; d <= o.Nodes; d++ {
		c.nodes[d].armReports(o.ReportEvery, end)
	}

	o.Synthetic.Replayer(c.router, o.Synthetic.Assignments(nil, o.ZipfSkew)).Schedule(0, end, o.Scale)

	eng.RunUntil(end)
	for d := 1; d <= o.Nodes; d++ {
		if mgr := c.nodes[d].mgr; mgr != nil {
			mgr.Stop()
		}
	}
	// Drain: in-flight invocations submitted before the window closed
	// still complete, their acks still cross back to the router, and
	// in-flight migrations still land. With the managers stopped and
	// the report loops past their window nothing reschedules forever,
	// so the queues empty; the iteration cap is a backstop only.
	drainEnd := end
	for i := 0; i < 240; i++ {
		if _, busy := eng.Next(); !busy {
			break
		}
		drainEnd = drainEnd.Add(sim.Second)
		eng.RunUntil(drainEnd)
	}

	return c.collect()
}

// collect folds the post-run state into the Result.
func (c *Cluster) collect() (*Result, error) {
	o := c.opts
	rt := c.router
	res := &Result{
		Policy:       o.Policy,
		Mode:         o.Mode,
		NodeCount:    o.Nodes,
		CachePerNode: o.CacheBytes,
		Submitted:    rt.submitted,
		Acks:         rt.acks,
		Fleet:        rt.fleetHist,
		Merged:       metrics.NewHistogram(latencyBounds()...),
		Reports:      rt.reports,
		MigOrders:    rt.migOrders,
		Moves:        rt.moves,
		Violations:   rt.violations,
	}
	for d := 1; d <= o.Nodes; d++ {
		n := c.nodes[d]
		if err := res.Merged.Merge(n.hist); err != nil {
			return nil, err
		}
		st := n.platform.Stats()
		row := NodeRow{
			Node:         d - 1,
			Functions:    len(rt.seen[d]),
			Completions:  st.Completions,
			ColdBootRate: st.ColdBootRate(),
			Evictions:    st.Evictions,
			MigratedOut:  st.MigratedOut,
			MigratedIn:   st.MigratedIn,
			PeakBytes:    n.platform.Machine().PeakPhysBytes(),
		}
		if st.Latency.Count() > 0 {
			row.P50 = st.Latency.Percentile(50)
			row.P99 = st.Latency.Percentile(99)
		}
		res.Rows = append(res.Rows, row)
		res.Completions += st.Completions
		res.ColdBoots += st.ColdBoots
		res.MigratedOut += st.MigratedOut
		res.MigratedIn += st.MigratedIn
		res.PeakBytes += row.PeakBytes
		res.AdoptErrs = append(res.AdoptErrs, n.adoptErrs...)
	}
	return res, nil
}
