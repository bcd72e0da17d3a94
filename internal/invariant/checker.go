// Package invariant is the simulator's cross-layer conservation
// checker: a bus subscriber that re-derives, after every interesting
// event, the properties that must hold between layers no matter what
// faults the chaos layer injects — OS page accounting conserves, heap
// spaces stay inside their reservations, the manager's state machine
// stays legal, and the platform's census matches the machine's.
//
// The checker records violations instead of panicking so a property
// sweep can report the offending seed; Final runs the full sweep one
// last time (plus the machine's own page-accounting audit) and returns
// everything found.
package invariant

import (
	"fmt"

	"desiccant/internal/container"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
)

// maxViolations bounds how many violation strings are retained; a
// broken invariant usually fails every subsequent sweep, and the first
// few reports are the diagnostic ones.
const maxViolations = 32

// Checker verifies cross-layer invariants as a bus subscriber.
type Checker struct {
	eng      *sim.Engine
	platform *faas.Platform
	mgr      *core.Manager // nil when no sweeper is attached

	violations []string
	truncated  int64 // violations dropped past maxViolations
	sweeps     int64

	// sweepArmed coalesces the deferred heavy sweep: many events at one
	// instant trigger a single sweep after the instant's callbacks ran.
	sweepArmed bool

	// reclaiming tracks instances between reclaim.begin and
	// reclaim.end, by instance ID, for state-machine legality. Only
	// membership is queried, never iteration order.
	reclaiming map[int]bool

	// openSpans tracks invocation lifecycle spans between submit and
	// their terminal event (complete or drop), by invocation ID. The
	// conservation law — open spans == Requests - Completions - Drops —
	// is re-derived on every sweep, so an orphan span (opened, its
	// request finished, never closed) is caught mid-run, not just at
	// quiescence. Only membership is queried, never iteration order.
	openSpans map[int64]bool

	lastPlat platCounters
	lastMgr  core.Stats
	statsSet bool

	// Scratch lists a sweep (and findCached) fills, reuses and clears,
	// so a warm sweep allocates nothing.
	insts  []*container.Instance
	spaces []*osmem.AddressSpace
	layout []runtime.SpaceRange
}

// platCounters is the monotone scalar subset of faas.Stats.
type platCounters struct {
	requests, completions, drops, coldBoots, warmStarts int64
	evictions, oomKills, requeues, prewarmHits          int64
	migratedOut, migratedIn                             int64
	cpuBusy, reclaimCPU                                 sim.Duration
}

// Attach subscribes a checker to the platform's bus. mgr may be nil.
func Attach(p *faas.Platform, mgr *core.Manager) *Checker {
	c := &Checker{
		eng:        p.Engine(),
		platform:   p,
		mgr:        mgr,
		reclaiming: make(map[int]bool),
		openSpans:  make(map[int64]bool),
	}
	p.Events().Subscribe(c)
	return c
}

// Violations returns what has been found so far.
func (c *Checker) Violations() []string { return c.violations }

// Sweeps returns how many heavy sweeps have run, so tests can assert
// the checker actually exercised the properties.
func (c *Checker) Sweeps() int64 { return c.sweeps }

func (c *Checker) fail(format string, args ...interface{}) {
	if len(c.violations) >= maxViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations,
		fmt.Sprintf("%v ", c.eng.Now())+fmt.Sprintf(format, args...))
}

// HandleEvent implements obs.Subscriber: cheap per-event legality
// checks run inline; heavy conservation sweeps are deferred to a
// same-instant event so they observe post-transition state.
func (c *Checker) HandleEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.EvReclaimBegin:
		if c.reclaiming[ev.Inst] {
			c.fail("reclaim.begin for instance %d already mid-reclaim", ev.Inst)
		}
		c.reclaiming[ev.Inst] = true
		if inst := c.findCached(ev.Inst); inst == nil {
			c.fail("reclaim.begin for instance %d not in the cache", ev.Inst)
		} else if inst.Status() != container.Frozen {
			c.fail("reclaim.begin for %s instance %d", inst.Status(), ev.Inst)
		}
	case obs.EvReclaimEnd:
		if !c.reclaiming[ev.Inst] {
			c.fail("reclaim.end for instance %d without a begin", ev.Inst)
		}
		delete(c.reclaiming, ev.Inst)
	case obs.EvReclaimSkipped:
		if c.reclaiming[ev.Inst] {
			c.fail("reclaim.skipped for instance %d already mid-reclaim", ev.Inst)
		}
	case obs.EvInvokeSubmit:
		if ev.Invo <= 0 {
			c.fail("invoke.submit without an invocation ID (fn %s)", ev.Name)
		} else if c.openSpans[ev.Invo] {
			c.fail("invoke.submit for invocation %d already has an open span", ev.Invo)
		} else {
			c.openSpans[ev.Invo] = true
		}
	case obs.EvInvokeComplete, obs.EvInvokeDrop:
		if ev.Invo <= 0 {
			c.fail("%s without an invocation ID (fn %s)", ev.Kind, ev.Name)
		} else if !c.openSpans[ev.Invo] {
			c.fail("%s for invocation %d without an open span (double close?)", ev.Kind, ev.Invo)
		} else {
			delete(c.openSpans, ev.Invo)
		}
	case obs.EvInvokeStart, obs.EvColdBoot, obs.EvThaw:
		// Mid-lifecycle events must land inside an open span.
		if ev.Invo > 0 && !c.openSpans[ev.Invo] {
			c.fail("%s for invocation %d outside its span", ev.Kind, ev.Invo)
		}
	}

	switch ev.Kind {
	case obs.EvColdBoot, obs.EvThaw, obs.EvFreeze, obs.EvEvict, obs.EvDestroy,
		obs.EvReclaimEnd, obs.EvReclaimSkipped, obs.EvOOMKill, obs.EvSwapOut,
		obs.EvSwapFallback, obs.EvFault, obs.EvInvokeDrop:
		c.armSweep()
	}
}

// armSweep schedules one heavy sweep for the end of the current
// instant, coalescing repeated triggers.
func (c *Checker) armSweep() {
	if c.sweepArmed {
		return
	}
	c.sweepArmed = true
	c.eng.At(c.eng.Now(), "invariant:sweep", func() {
		c.sweepArmed = false
		c.sweep()
	})
}

// Final runs a last full sweep plus the machine's own page-accounting
// audit and returns every violation found during the run.
func (c *Checker) Final() []string {
	c.sweep()
	for _, s := range c.platform.Machine().Audit() {
		c.fail("machine audit: %s", s)
	}
	if c.truncated > 0 {
		c.violations = append(c.violations,
			fmt.Sprintf("... and %d more violations truncated", c.truncated))
	}
	return c.violations
}

// sweep re-derives every cross-layer conservation property.
func (c *Checker) sweep() {
	c.sweeps++
	c.insts = c.platform.AppendCached(c.insts[:0])
	cached := len(c.insts)
	c.insts = c.platform.AppendInFlight(c.insts)
	c.checkPageConservation()
	c.checkHeapBounds(c.insts)
	c.checkManager()
	c.checkCensus()
	c.checkOccupancy(c.insts[:cached])
	c.checkSpans()
	c.checkMonotone()
	clear(c.insts) // pin no dead instance
}

// checkSpans holds the span-conservation law: the invocation spans
// still open per the event stream must equal the requests the platform
// has admitted but not finished (completed or dropped). An orphan span
// — opened, its request gone, never closed — or a missing terminal
// event breaks the equality immediately.
func (c *Checker) checkSpans() {
	ps := c.platform.Stats()
	open := int64(len(c.openSpans))
	want := ps.Requests - ps.Completions - ps.Drops
	if open != want {
		c.fail("span conservation: %d open spans but requests=%d - completions=%d - drops=%d = %d in flight",
			open, ps.Requests, ps.Completions, ps.Drops, want)
	}
}

// checkPageConservation holds the OS's global counters equal to the
// sum of what every address space believes it has: Σ RSS must equal
// the machine's physical page count (no page double-counted or
// double-freed), Σ Swap must equal swap occupancy, and each space's
// smaps identities must be internally consistent — including the O(1)
// USS counter against the full smaps recount.
func (c *Checker) checkPageConservation() {
	m := c.platform.Machine()
	var rss, swap int64
	c.spaces = m.AppendAddressSpaces(c.spaces[:0])
	defer clear(c.spaces)
	for _, as := range c.spaces {
		u := as.Usage()
		rss += u.RSS
		swap += u.Swap
		if got := as.USS(); got != u.USS {
			c.fail("as %d: USS counter %d != smaps USS %d", as.ID(), got, u.USS)
		}
		if u.USS != u.PrivateDirty+u.PrivateClean {
			c.fail("as %d: USS %d != PrivateDirty %d + PrivateClean %d",
				as.ID(), u.USS, u.PrivateDirty, u.PrivateClean)
		}
		if u.RSS != u.USS+u.SharedClean {
			c.fail("as %d: RSS %d != USS %d + SharedClean %d",
				as.ID(), u.RSS, u.USS, u.SharedClean)
		}
		if u.RSS < 0 || u.Swap < 0 {
			c.fail("as %d: negative accounting rss=%d swap=%d", as.ID(), u.RSS, u.Swap)
		}
	}
	if rss != m.PhysBytes() {
		c.fail("page conservation: sum RSS %d != machine PhysBytes %d", rss, m.PhysBytes())
	}
	if swap != m.SwapPages()*osmem.PageSize {
		c.fail("swap conservation: sum Swap %d != machine swap %d", swap, m.SwapPages()*osmem.PageSize)
	}
	if lim := m.SwapLimit(); lim > 0 && m.SwapPages() > lim {
		c.fail("swap occupancy %d pages exceeds device limit %d", m.SwapPages(), lim)
	}
}

// checkHeapBounds verifies, for every instance of insts whose runtime
// exposes its space layout, that no space escapes the heap reservation
// and no two spaces overlap — the eden/from/to/old (or semispace/old
// chunk) geometry survives faults.
func (c *Checker) checkHeapBounds(insts []*container.Instance) {
	for _, inst := range insts {
		sl, ok := inst.Runtime.(runtime.SpaceLayout)
		if !ok {
			continue
		}
		_, heapLen := inst.Runtime.HeapRange()
		c.layout = sl.AppendSpaceLayout(c.layout[:0])
		spaces := c.layout
		for _, s := range spaces {
			if s.Off < 0 || s.Len < 0 || s.Off+s.Len > heapLen {
				c.fail("inst %d: space %s [%d,%d) escapes heap reservation of %d bytes",
					inst.ID, s.Name, s.Off, s.Off+s.Len, heapLen)
			}
		}
		for i := 0; i < len(spaces); i++ {
			for k := i + 1; k < len(spaces); k++ {
				a, b := spaces[i], spaces[k]
				if a.Len > 0 && b.Len > 0 && a.Off < b.Off+b.Len && b.Off < a.Off+a.Len {
					c.fail("inst %d: spaces %s [%d,%d) and %s [%d,%d) overlap",
						inst.ID, a.Name, a.Off, a.Off+a.Len, b.Name, b.Off, b.Off+b.Len)
				}
			}
		}
	}
}

// checkManager holds the sweeper's state machine legal: concurrency
// within bounds, and the event-stream picture of in-flight
// reclamations never exceeding the manager's own count.
func (c *Checker) checkManager() {
	if c.mgr == nil {
		return
	}
	active := c.mgr.ActiveReclaims()
	limit := c.mgr.Config().MaxConcurrent
	if limit < 1 {
		limit = 1
	}
	if active < 0 || active > limit {
		c.fail("manager: ActiveReclaims %d outside [0,%d]", active, limit)
	}
	if len(c.reclaiming) > active {
		c.fail("manager: %d instances mid-reclaim per event stream but ActiveReclaims=%d",
			len(c.reclaiming), active)
	}
}

// checkCensus holds the platform's bookkeeping equal to the OS's:
// every live address space is a cached, in-flight, or prewarmed
// instance — nothing leaked, nothing double-destroyed.
func (c *Checker) checkCensus() {
	acc := c.platform.AccountedInstances()
	spaces := c.platform.Machine().SpaceCount()
	if acc != spaces {
		c.fail("census: platform accounts %d instances (cached=%d inflight=%d prewarmed=%d) but machine has %d address spaces",
			acc, c.platform.CachedCount(), c.platform.InFlightCount(),
			c.platform.PrewarmedTotal(), spaces)
	}
}

// checkOccupancy holds the platform's cache occupancy, an O(1) read of
// its tally, equal to the walk the tally replaced: the USS of every
// cached instance, summed. A USS change that bypassed the tally (a
// page-sharing credit moved to a survivor, say) shows up here.
func (c *Checker) checkOccupancy(cached []*container.Instance) {
	var sum int64
	for _, inst := range cached {
		sum += inst.USS()
	}
	if got := c.platform.MemoryUsed(); got != sum {
		c.fail("occupancy: MemoryUsed %d but the %d cached instances' USS sums to %d",
			got, len(cached), sum)
	}
	if got := c.platform.CachedCount(); got != len(cached) {
		c.fail("occupancy: CachedCount %d but %d cached instances", got, len(cached))
	}
}

// checkMonotone holds every lifetime counter nondecreasing across
// sweeps — a fault path that un-counts work (or double-subtracts
// bytes) shows up here.
func (c *Checker) checkMonotone() {
	ps := c.platform.Stats()
	cur := platCounters{
		requests: ps.Requests, completions: ps.Completions, drops: ps.Drops,
		coldBoots: ps.ColdBoots, warmStarts: ps.WarmStarts,
		evictions: ps.Evictions, oomKills: ps.OOMKills,
		requeues: ps.Requeues, prewarmHits: ps.PrewarmHits,
		migratedOut: ps.MigratedOut, migratedIn: ps.MigratedIn,
		cpuBusy: ps.CPUBusy, reclaimCPU: ps.ReclaimCPU,
	}
	var curMgr core.Stats
	if c.mgr != nil {
		curMgr = c.mgr.Stats()
	}
	if c.statsSet {
		c.compareMonotone(cur, curMgr)
	}
	c.lastPlat, c.lastMgr, c.statsSet = cur, curMgr, true
}

func (c *Checker) compareMonotone(cur platCounters, mgr core.Stats) {
	type pair struct {
		name      string
		prev, now int64
	}
	checks := []pair{
		{"platform.Requests", c.lastPlat.requests, cur.requests},
		{"platform.Completions", c.lastPlat.completions, cur.completions},
		{"platform.Drops", c.lastPlat.drops, cur.drops},
		{"platform.ColdBoots", c.lastPlat.coldBoots, cur.coldBoots},
		{"platform.WarmStarts", c.lastPlat.warmStarts, cur.warmStarts},
		{"platform.Evictions", c.lastPlat.evictions, cur.evictions},
		{"platform.OOMKills", c.lastPlat.oomKills, cur.oomKills},
		{"platform.Requeues", c.lastPlat.requeues, cur.requeues},
		{"platform.PrewarmHits", c.lastPlat.prewarmHits, cur.prewarmHits},
		{"platform.MigratedOut", c.lastPlat.migratedOut, cur.migratedOut},
		{"platform.MigratedIn", c.lastPlat.migratedIn, cur.migratedIn},
		{"platform.CPUBusy", int64(c.lastPlat.cpuBusy), int64(cur.cpuBusy)},
		{"platform.ReclaimCPU", int64(c.lastPlat.reclaimCPU), int64(cur.reclaimCPU)},
		// Without a manager both sides are zero.
		{"manager.Checks", c.lastMgr.Checks, mgr.Checks},
		{"manager.Activations", c.lastMgr.Activations, mgr.Activations},
		{"manager.Reclamations", c.lastMgr.Reclamations, mgr.Reclamations},
		{"manager.ReleasedBytes", c.lastMgr.ReleasedBytes, mgr.ReleasedBytes},
		{"manager.SwappedBytes", c.lastMgr.SwappedBytes, mgr.SwappedBytes},
		{"manager.CPUTime", int64(c.lastMgr.CPUTime), int64(mgr.CPUTime)},
		{"manager.Starved", c.lastMgr.Starved, mgr.Starved},
		{"manager.SkippedThaws", c.lastMgr.SkippedThaws, mgr.SkippedThaws},
		{"manager.FailedReclaims", c.lastMgr.FailedReclaims, mgr.FailedReclaims},
		{"manager.PartialReclaims", c.lastMgr.PartialReclaims, mgr.PartialReclaims},
		{"manager.Retries", c.lastMgr.Retries, mgr.Retries},
		{"manager.SwapFallbacks", c.lastMgr.SwapFallbacks, mgr.SwapFallbacks},
	}
	for _, ck := range checks {
		if ck.now < ck.prev {
			c.fail("monotone: %s went backward %d -> %d", ck.name, ck.prev, ck.now)
		}
	}
}

// findCached returns the cached instance with the given ID, or nil.
func (c *Checker) findCached(id int) *container.Instance {
	c.insts = c.platform.AppendCached(c.insts[:0])
	defer clear(c.insts)
	for _, inst := range c.insts {
		if inst.ID == id {
			return inst
		}
	}
	return nil
}
