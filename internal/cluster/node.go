package cluster

import (
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/metrics"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Node is one worker machine: a full platform with its manager, a
// local latency histogram folded at completion time, and the sampling
// loop that ships pressure reports to the router. All Node state is
// only ever touched by the node's own events and by messages addressed
// to it; everything the router learns travels as a value copy in a
// message.
type Node struct {
	c        *Cluster
	d        int // cluster index (1-based; node index is d-1)
	eng      *sim.Engine
	platform *faas.Platform
	mgr      *core.Manager // nil in vanilla mode
	hist     *metrics.Histogram

	reportEvery sim.Duration
	reportUntil sim.Time

	// adoptErrs records failed adoptions — a lost instance, surfaced
	// by CheckConsistency.
	adoptErrs []string
}

// invoBase spreads node d's invocation IDs into a disjoint block, so a
// span's machine reads off its ID (invo / invoBase == d).
const invoBase = int64(1_000_000_000)

// newNode wires one machine through core.NewMachine. Its observer
// subscribes the completion ack ahead of every other subscriber, then
// runs ObserveNode, both before the manager starts.
func newNode(c *Cluster, d int, mcfg *core.Config) (*Node, error) {
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = c.opts.CacheBytes
	pcfg.InvoBase = int64(d) * invoBase
	n := &Node{
		c:    c,
		d:    d,
		eng:  c.eng,
		hist: metrics.NewHistogram(latencyBounds()...),
	}
	var err error
	n.platform, n.mgr, err = core.NewMachine(c.eng, pcfg, mcfg, func(p *faas.Platform, mgr *core.Manager) {
		p.Events().Subscribe(obs.SubscriberFunc(n.ack))
		if c.opts.ObserveNode != nil {
			c.opts.ObserveNode(p, mgr)
		}
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// ack folds a completion into the node's histogram and acks it back to
// the router over the route hop; the router folds the same value, so
// the two sides must agree exactly at the end of the run.
func (n *Node) ack(ev obs.Event) {
	if ev.Kind != obs.EvInvokeComplete {
		return
	}
	lat := ev.Dur.Millis()
	n.hist.Add(lat)
	n.eng.Deliver(n.d, n.eng.Now().Add(routeLatency), "fleet:ack", func() {
		n.c.router.onAck(n.d, lat)
	})
}

// deliver lands a dynamically-routed request on the node.
func (n *Node) deliver(spec *workload.Spec) {
	n.platform.Submit(spec, n.eng.Now())
}

// armReports starts the pressure-sampling loop, which stops at the
// window end so the drain phase sees a quiescing engine.
func (n *Node) armReports(every sim.Duration, until sim.Time) {
	if every <= 0 {
		return
	}
	n.reportEvery, n.reportUntil = every, until
	n.eng.After(every, "cluster:sample", n.sample)
}

// sample takes a value-copy snapshot of local pressure and ships it
// to the router over the modeled hop. The emitted EvNodePressure
// shows in the node's own trace exactly what the router will see.
func (n *Node) sample() {
	now := n.eng.Now()
	nv := NodeView{
		Reported:       true,
		At:             now,
		CommittedPages: n.platform.Machine().PhysPages(),
		MemFrac:        n.platform.MemoryUsedFraction(),
		QueueLen:       n.platform.QueueLength(),
		CachedCount:    n.platform.CachedCount(),
	}
	if n.mgr != nil {
		nv.ActiveReclaims = n.mgr.ActiveReclaims()
	}
	n.platform.Events().Emit(obs.Event{Kind: obs.EvNodePressure, Inst: -1,
		Bytes: nv.CommittedPages * osmem.PageSize, Val: nv.MemFrac, Aux: int64(nv.QueueLen)})
	n.eng.Deliver(n.d, now.Add(routeLatency), "cluster:report", func() {
		n.c.router.onReport(n.d, nv)
	})
	if next := now.Add(n.reportEvery); next <= n.reportUntil {
		n.eng.After(n.reportEvery, "cluster:sample", n.sample)
	}
}

// migrateOut executes a router migration order on the source node:
// detach up to migrationBatch of the coldest frozen instances and ship
// each to dst. The victim choice happens here, against live node
// state, so the router cannot know it — the hand-off therefore also
// notifies the router which function moved to re-home affinity.
func (n *Node) migrateOut(dst int) {
	for i := 0; i < migrationBatch; i++ {
		spec, stage, ok := n.platform.DetachColdest(obs.EvictMigrate)
		if !ok {
			break
		}
		n.sendInstance(dst, spec, stage)
	}
}

// sendInstance ships one detached instance: the adopt lands on the
// destination node after the hand-off latency, and the router learns
// the move after the route hop. Both are deliveries keyed by this
// node's index, so the adopt order and the affinity update order are
// fixed at send time — the determinism argument for migration.
func (n *Node) sendInstance(dst int, spec *workload.Spec, stage int) {
	n.eng.Deliver(n.d, n.eng.Now().Add(n.c.opts.Migration.Latency), "cluster:adopt", func() {
		n.c.nodes[dst].adopt(spec, stage)
	})
	n.eng.Deliver(n.d, n.eng.Now().Add(routeLatency), "cluster:moved", func() {
		n.c.router.onMoved(spec.Name, dst)
	})
}

// adopt re-materializes a migrated instance on this node (the
// destination half of the hand-off).
func (n *Node) adopt(spec *workload.Spec, stage int) {
	if _, err := n.platform.AdoptFrozen(spec, stage); err != nil {
		n.adoptErrs = append(n.adoptErrs, err.Error())
	}
}
