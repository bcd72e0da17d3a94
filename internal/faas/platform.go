package faas

import (
	"cmp"
	"slices"

	"desiccant/internal/container"
	"desiccant/internal/metrics"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Stats aggregates platform-wide counters for the trace experiments.
type Stats struct {
	Requests    int64
	Completions int64
	ColdBoots   int64
	WarmStarts  int64
	Evictions   int64
	OOMKills    int64
	// Restores counts snapshot restores (Snapshot mode only; they are
	// also included in ColdBoots, being the cold path).
	Restores int64
	// PrewarmHits counts cold boots served from the stem-cell pool.
	PrewarmHits int64
	// Requeues counts invocations restarted after an injected OOM kill.
	Requeues int64
	// Drops counts requests that left the platform without completing:
	// real OOM failures plus requeue exhaustion. Every submitted
	// request ends in exactly one of Completions or Drops, which is the
	// span-conservation law the invariant checker holds
	// (open spans == Requests - Completions - Drops).
	Drops int64
	// MigratedOut counts frozen instances detached from this
	// platform's cache and handed to another machine; MigratedIn
	// counts instances adopted from elsewhere. Migrations are not
	// Evictions: the instance keeps serving its function, just on a
	// different machine.
	MigratedOut int64
	MigratedIn  int64

	// Latency is the end-to-end request latency (arrival to final
	// stage completion), in milliseconds.
	Latency metrics.Distribution
	// PerFunction holds the same latency distribution per function
	// name, for per-workload breakdowns.
	PerFunction map[string]*metrics.Distribution
	// QueueWait is time spent waiting for memory/CPU admission, in
	// milliseconds.
	QueueWait metrics.Distribution

	// CPUBusy is accumulated core-time consumed by boots, executions
	// and post-exec GC.
	CPUBusy sim.Duration
	// ReclaimCPU is core-time consumed by Desiccant reclamations
	// (charged to the platform's idle CPUs, not to functions).
	ReclaimCPU sim.Duration
}

// ColdBootRate returns cold boots per completed request.
func (s *Stats) ColdBootRate() float64 {
	if s.Completions == 0 {
		return 0
	}
	return float64(s.ColdBoots) / float64(s.Completions)
}

type poolKey struct {
	name  string
	stage int
}

// Platform is the simulated FaaS controller.
type Platform struct {
	cfg     Config
	eng     *sim.Engine
	machine *osmem.Machine
	rng     *sim.RNG

	nextInstID int
	// nextInvo is the per-platform invocation counter: request i
	// submitted to this platform gets ID cfg.InvoBase + i (1-based).
	// Assignment happens when the request arrives (arrive), so the IDs
	// follow arrival order — deterministic for a deterministic schedule.
	nextInvo int64
	// cached holds non-running (frozen) instances per function stage,
	// and occupancy sums their USS: every instance in cached has joined
	// it (putBack, takeCached, uncache keep the two in step).
	cached    map[poolKey][]*container.Instance
	occupancy osmem.Tally
	prewarm   map[runtime.Language][]*container.Prewarmed
	cpuAvail  float64

	// inFlight tracks instances out of the cache for execution, and
	// pendingAssign counts stem cells popped but not yet assigned —
	// together with cached and prewarm they account for every live
	// address space (see AccountedInstances).
	inFlight      map[int]*container.Instance
	pendingAssign int

	queue []*invocation

	// The pooled event records (records.go).
	arrivals freeList[arrival, *arrival]
	invos    freeList[invocation, *invocation]
	timers   freeList[timer, *timer]
	// lru is the scratch list of eviction and migration candidates
	// (ensureCacheFits, DetachColdest).
	lru []*container.Instance
	// instOpts is what every instance this platform builds is built
	// with.
	instOpts container.Options

	stats Stats

	// bus carries every event out of the platform: observers and the
	// manager subscribe to it (Events).
	bus *obs.Bus
}

// New creates a platform on a fresh simulated machine. It panics on a
// configuration Validate rejects.
func New(cfg Config, eng *sim.Engine) *Platform {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Platform{
		cfg:      cfg,
		eng:      eng,
		machine:  osmem.NewMachine(),
		rng:      sim.NewRNG(cfg.Seed),
		cached:   make(map[poolKey][]*container.Instance),
		prewarm:  make(map[runtime.Language][]*container.Prewarmed),
		cpuAvail: cfg.CPUs,
		bus:      obs.NewBus(eng),
		arrivals: freeList[arrival, *arrival]{max: recordSlab, slab: arrivalSlab},
	}
	p.instOpts = container.Options{
		MemoryBudget:   cfg.InstanceBudget,
		ShareLibraries: cfg.Profile == OpenWhisk,
		Events:         p.bus,
	}
	if cfg.PrewarmPerLanguage > 0 {
		// The initial stem cells exist before the first request.
		for _, lang := range []runtime.Language{runtime.Java, runtime.JavaScript} {
			for i := 0; i < cfg.PrewarmPerLanguage; i++ {
				p.addPrewarmed(lang)
			}
		}
	}
	return p
}

// addPrewarmed boots one stem cell for lang. A budget the runtime
// cannot start in leaves the pool a cell short: the request that would
// have taken it cold-boots, fails the same way and is dropped.
func (p *Platform) addPrewarmed(lang runtime.Language) {
	p.nextInstID++
	pw, err := container.NewPrewarmed(p.machine, p.nextInstID, lang, p.instOpts)
	if err != nil {
		p.bus.Emit(obs.Event{Kind: obs.EvWarning, Inst: -1, Name: "prewarm failed: " + err.Error()})
		return
	}
	p.prewarm[lang] = append(p.prewarm[lang], pw)
}

// takePrewarmed pops a stem cell for lang, if any.
func (p *Platform) takePrewarmed(lang runtime.Language) *container.Prewarmed {
	pool := p.prewarm[lang]
	if len(pool) == 0 {
		return nil
	}
	pw := pool[len(pool)-1]
	p.prewarm[lang] = pool[:len(pool)-1]
	return pw
}

// PrewarmedCount reports the stem cells currently pooled for lang.
func (p *Platform) PrewarmedCount(lang runtime.Language) int { return len(p.prewarm[lang]) }

// Engine returns the platform's event engine.
func (p *Platform) Engine() *sim.Engine { return p.eng }

// Machine returns the simulated host.
func (p *Platform) Machine() *osmem.Machine { return p.machine }

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// Stats returns a pointer to the live counters.
func (p *Platform) Stats() *Stats { return &p.stats }

// ResetStats zeroes the counters, e.g. at the end of a warmup window.
// Cached instances and in-flight requests are untouched.
func (p *Platform) ResetStats() { p.stats = Stats{} }

// Events returns the platform's event bus, the one path out of the
// platform: observers subscribe to it, and the manager both reads it
// (evictions, destroys) and emits its own events on it.
func (p *Platform) Events() *obs.Bus { return p.bus }

// SubmitName is Submit by function name.
func (p *Platform) SubmitName(name string, t sim.Time) error {
	spec, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	p.Submit(spec, t)
	return nil
}

// startStage attempts to begin the invocation's current stage now,
// queuing it when memory or CPU admission fails.
func (p *Platform) startStage(inv *invocation) {
	if p.tryStart(inv) {
		return
	}
	inv.enqueued = p.eng.Now()
	p.queue = append(p.queue, inv)
	p.noteQueueDepth()
}

// noteQueueDepth samples the admission queue onto the bus after every
// depth change.
func (p *Platform) noteQueueDepth() {
	p.bus.Emit(obs.Event{Kind: obs.EvQueueDepth, Inst: -1, Val: float64(len(p.queue))})
}

// tryStart performs admission and, on success, launches the stage.
// A running instance draws its memory from the host (which the paper's
// 128 GiB server makes effectively unconstrained); admission is gated
// by the CPU pool, while the frozen-instance cache limit is enforced
// at freeze time (see ensureCacheFits).
func (p *Platform) tryStart(inv *invocation) bool {
	key := poolKey{inv.spec.Name, inv.stage}
	if inst := p.takeCached(key); inst != nil {
		if p.cpuAvail < p.cfg.PerInstanceCPU {
			p.putBack(key, inst)
			return false
		}
		p.acquireCPU(p.cfg.PerInstanceCPU)
		p.noteInFlight(inst)
		p.runWarm(inv, inst)
		return true
	}
	// Cold boot: needs boot CPU.
	bootCPU := maxF(p.cfg.ColdBootCPU, p.cfg.PerInstanceCPU)
	if p.cpuAvail < bootCPU {
		return false
	}
	p.acquireCPU(bootCPU)
	p.coldBoot(inv)
	return true
}

// putBack puts a frozen instance into its pool and its USS into the
// occupancy tally: on a freeze, an AddCached, or a return after a
// failed admission.
func (p *Platform) putBack(key poolKey, inst *container.Instance) {
	// Pool growth amortizes: the slice reaches the pool's steady-state
	// size within the warmup window and is reused thereafter.
	p.cached[key] = append(p.cached[key], inst)
	p.occupancy.Join(inst.AS)
}

// uncache takes a cached instance out of its pool and the occupancy
// tally.
func (p *Platform) uncache(inst *container.Instance) {
	key := poolKey{inst.Spec.Name, inst.Stage}
	pool := p.cached[key]
	for i, q := range pool {
		if q == inst {
			p.cached[key] = append(pool[:i], pool[i+1:]...)
			break
		}
	}
	p.occupancy.Leave(inst.AS)
}

// takeCached pops the most-recently-used cached instance for the key.
// Instances under reclamation are deprioritized but still usable —
// per §4.2 the platform does not coordinate with in-flight
// reclamations; thawing one simply cuts the reclamation short.
//
// takeCached runs once per warm invocation, so it must not allocate.
func (p *Platform) takeCached(key poolKey) *container.Instance {
	pool := p.cached[key]
	pick := -1
	for i := len(pool) - 1; i >= 0; i-- {
		if !pool[i].Reclaiming {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return nil
	}
	inst := pool[pick]
	// Removal shrinks: the result is one shorter than pool, so append
	// writes into pool's own backing array and never grows it.
	p.cached[key] = append(pool[:pick], pool[pick+1:]...)
	p.occupancy.Leave(inst.AS)
	return inst
}

// MemoryUsed reports the instance cache's occupancy: the accumulated
// USS of all frozen instances — what OpenWhisk monitors to decide
// eviction (§4.2), and what Desiccant reduces to fit more instances in
// the cache. The occupancy tally keeps the sum as the instances' pages
// change hands, so the read is O(1).
func (p *Platform) MemoryUsed() int64 { return p.occupancy.Bytes() }

// MemoryUsedFraction is MemoryUsed over the cache size — "the portion
// of used memory of frozen instances", Desiccant's activation signal.
func (p *Platform) MemoryUsedFraction() float64 {
	return float64(p.MemoryUsed()) / float64(p.cfg.CacheBytes)
}

// ensureCacheFits evicts frozen instances (LRU) until the cache
// occupancy is back under its limit. Called whenever an instance
// enters the cache.
func (p *Platform) ensureCacheFits() {
	if p.MemoryUsed() <= p.cfg.CacheBytes {
		return
	}
	// Re-read after every eviction: destroying an instance can
	// *increase* the survivors' USS (library pages it shared become
	// private to them), so subtracting the victim's USS would
	// under-evict. The tally carries those credits.
	p.lru = p.AppendCached(p.lru[:0])
	for _, inst := range p.lru {
		if p.MemoryUsed() <= p.cfg.CacheBytes {
			break
		}
		p.evict(inst, obs.EvictPressure)
	}
	clear(p.lru) // pin no dead instance
}

// AppendCached appends the frozen instances currently in the cache
// (Desiccant's candidate set) to dst and returns the extended slice;
// pass nil for a fresh one. The order is deterministic: least recently
// used first, ties broken by ascending instance ID. The pools
// themselves are keyed by a map, so this ordering is what keeps
// victim selection — and with it every reclamation trace — identical
// across runs at the same seed; TestCachedInstancesDeterministicOrder
// and core's TestVictimSelectionOrderDeterministic pin the contract.
func (p *Platform) AppendCached(dst []*container.Instance) []*container.Instance {
	start := len(dst)
	for _, pool := range p.cached {
		dst = append(dst, pool...)
	}
	slices.SortFunc(dst[start:], func(a, b *container.Instance) int {
		if c := cmp.Compare(a.LastUsed(), b.LastUsed()); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return dst
}

// AddCached inserts an externally-prepared frozen instance into the
// cache — the pre-warming path OpenWhisk uses for stock runtimes, and
// the hook harnesses use to stage instances. The instance must be
// frozen.
func (p *Platform) AddCached(inst *container.Instance) {
	if inst.Status() != container.Frozen {
		panic("faas: AddCached requires a frozen instance")
	}
	p.putBack(poolKey{inst.Spec.Name, inst.Stage}, inst)
	p.noteFreeze(inst)
	p.ensureCacheFits()
	p.scheduleKeepAlive(inst)
}

// noteFreeze emits the freeze event for an instance that just entered
// the cache.
func (p *Platform) noteFreeze(inst *container.Instance) {
	p.bus.Emit(obs.Event{Kind: obs.EvFreeze, Inst: inst.ID, Name: inst.Spec.Name,
		Bytes: inst.USS()})
}

// IsCached reports whether inst currently sits in the frozen-instance
// cache. Desiccant re-checks this when a deferred reclamation starts:
// the instance may have been taken for a request (thawed) or evicted
// in between. It reads the instance's tally membership, in O(1).
func (p *Platform) IsCached(inst *container.Instance) bool {
	return p.occupancy.Has(inst.AS)
}

// evict destroys a cached instance. Per §4.2, eviction is oblivious
// to any in-flight reclamation: the stateless instance can always be
// destroyed safely. reason is an obs.Evict* constant; only
// obs.EvictPressure is Desiccant's pressure signal (§4.5.1).
func (p *Platform) evict(inst *container.Instance, reason int64) {
	p.uncache(inst)
	p.bus.Emit(obs.Event{Kind: obs.EvEvict, Inst: inst.ID, Name: inst.Spec.Name,
		Bytes: inst.USS(), Aux: reason})
	p.stats.Evictions++
	p.destroy(inst)
}

// destroy tears a dead instance down: the machine takes its pages
// back, and the workload state's lists and the heap's go back with the
// heap's object pool for the next cold boot. Callers emit the
// instance's EvEvict or EvDestroy first: those are the events
// subscribers drop per-instance state on. Only an instance whose
// creation failed, never frozen or run, goes without.
func (p *Platform) destroy(inst *container.Instance) {
	inst.Kill()
	p.machine.Destroy(inst.AS)
	inst.State.Release()
	inst.Runtime.Release()
}

// The platform's fixed latencies.
const (
	// warmStart is the unpause cost when thawing a frozen instance.
	warmStart = 2 * sim.Millisecond
	// prewarmAssign is the stem-cell assignment latency.
	prewarmAssign = 80 * sim.Millisecond
	// restoreLatency is the snapshot restore cost.
	restoreLatency = 150 * sim.Millisecond
)

// bootLatency is the per-language instance creation latency; a
// language it does not list boots instantly.
func bootLatency(lang runtime.Language) sim.Duration {
	switch lang {
	case runtime.Java:
		return 900 * sim.Millisecond
	case runtime.JavaScript:
		return 300 * sim.Millisecond
	}
	return 0
}

// coldBoot creates the instance and schedules execution after the
// boot latency. A pooled stem cell shortens the boot to the
// assignment cost; Snapshot mode replaces the boot with a snapshot
// restore and wakes pre-initialized.
func (p *Platform) coldBoot(inv *invocation) {
	p.stats.ColdBoots++
	boot := bootLatency(inv.spec.Language)
	bootKind := int64(obs.BootCold)
	pw := p.takePrewarmed(inv.spec.Language)
	if pw != nil {
		boot = prewarmAssign
		bootKind = obs.BootPrewarm
		p.stats.PrewarmHits++
		p.pendingAssign++
	}
	if p.cfg.Snapshot {
		boot = restoreLatency
		bootKind = obs.BootRestore
		p.stats.Restores++
	}
	inv.pw, inv.dur, inv.bootKind = pw, boot, bootKind
	inv.arm(stepBoot, boot)
}

// booted completes a boot: the instance is created and the stage
// executes on it.
func (p *Platform) booted(inv *invocation) {
	boot := inv.dur
	bootCPU := maxF(p.cfg.ColdBootCPU, p.cfg.PerInstanceCPU)
	p.stats.CPUBusy += sim.Duration(float64(boot) * bootCPU)
	inst, err := p.createInstance(inv, inv.pw)
	inv.pw = nil
	if err != nil {
		// No instance exists to kill: hand the boot share back and
		// fail the request, as execute does for a body that runs out
		// of memory. EvInvokeDrop closes the invocation's span.
		p.releaseCPU(bootCPU)
		p.stats.Drops++
		p.bus.Emit(obs.Event{Kind: obs.EvWarning, Inst: -1,
			Name: "boot failed: " + inv.spec.Name + ": " + err.Error()})
		p.bus.Emit(obs.Event{Kind: obs.EvInvokeDrop, Inst: -1, Invo: inv.id,
			Name: inv.spec.Name, Dur: p.eng.Now().Sub(inv.arrival), Aux: obs.DropBootFailure,
			Bytes: int64(boot)})
		p.release(inv)
		p.pumpQueue()
		return
	}
	// Swap the boot share for the execution share.
	p.releaseCPU(bootCPU)
	p.acquireCPU(p.cfg.PerInstanceCPU)
	// Emitted at boot completion; Dur covers the boot, so the span
	// builder recovers the boot start as Time - Dur. Aux
	// distinguishes the cold / prewarm-assign / restore paths.
	p.bus.Emit(obs.Event{Kind: obs.EvColdBoot, Inst: inst.ID, Invo: inv.id,
		Name: inv.spec.Name, Dur: boot, Bytes: p.cfg.InstanceBudget, Aux: inv.bootKind})
	p.noteInFlight(inst)
	p.execute(inv, inst)
}

// createInstance builds the instance a finished boot hands the
// invocation: the assigned stem cell pw when there is one, else a
// fresh container, hydrated from the snapshot in Snapshot mode. On an
// error nothing of the instance is left on the machine.
func (p *Platform) createInstance(inv *invocation, pw *container.Prewarmed) (*container.Instance, error) {
	if pw != nil {
		p.pendingAssign--
		if !p.cfg.Snapshot {
			inst, err := pw.Assign(inv.spec, inv.stage, p.eng.Now())
			p.scheduleReplenish(inv.spec.Language)
			if err != nil {
				pw.Destroy()
			}
			return inst, err
		}
		pw.Destroy() // snapshot mode takes the cold path anyway
	}
	p.nextInstID++
	inst, err := container.New(p.machine, p.nextInstID, inv.spec, inv.stage, p.eng.Now(), p.instOpts)
	if err != nil || !p.cfg.Snapshot {
		return inst, err
	}
	if err := inst.Hydrate(p.eng.Now(), p.rng); err != nil {
		p.destroy(inst) // never announced: no subscriber holds its state
		return nil, err
	}
	return inst, nil
}

// scheduleReplenish refills the stem-cell pool in the background,
// consuming idle boot CPU when available.
func (p *Platform) scheduleReplenish(lang runtime.Language) {
	if p.cfg.PrewarmPerLanguage <= 0 {
		return
	}
	boot := bootLatency(lang)
	p.eng.After(boot, "prewarm:"+string(lang), func() {
		if len(p.prewarm[lang]) >= p.cfg.PrewarmPerLanguage {
			return
		}
		share := p.TryAcquireIdleCPU(p.cfg.ColdBootCPU)
		if share <= 0 {
			p.scheduleReplenish(lang) // retry after another boot interval
			return
		}
		p.stats.CPUBusy += sim.Duration(float64(boot) * share)
		p.ReleaseIdleCPU(share)
		p.addPrewarmed(lang)
	})
}

// runWarm thaws a cached instance and executes after the unpause cost.
func (p *Platform) runWarm(inv *invocation, inst *container.Instance) {
	p.stats.WarmStarts++
	// Aux marks a thaw that cut an in-flight reclamation short (§4.2):
	// attribution charges such a thaw to reclaim_stall.
	var aux int64
	if inst.Reclaiming {
		aux = obs.ThawReclaiming
	}
	p.bus.Emit(obs.Event{Kind: obs.EvThaw, Inst: inst.ID, Invo: inv.id, Name: inv.spec.Name,
		Dur: warmStart, Aux: aux})
	inv.inst = inst
	inv.arm(stepThaw, warmStart)
}

// execute runs the stage body on the instance and schedules completion.
func (p *Platform) execute(inv *invocation, inst *container.Instance) {
	inst.BeginRun(p.eng.Now())
	inst.SetCurrentInvo(inv.id)
	inv.instances = append(inv.instances, inst)

	rep, gcCost, faultCost, err := inst.InvokeBody(p.rng)
	inst.SetCurrentInvo(0) // post-exec (policy) GC is not the invocation's
	if err != nil {
		// The instance ran out of memory: kill it and fail the request
		// (a real platform would return a 5xx). EvInvokeDrop closes the
		// invocation's span.
		p.stats.OOMKills++
		p.stats.Drops++
		p.bus.Emit(obs.Event{Kind: obs.EvWarning, Inst: inst.ID,
			Name: "oom-kill: " + inv.spec.Name})
		p.bus.Emit(obs.Event{Kind: obs.EvInvokeDrop, Inst: inst.ID, Invo: inv.id,
			Name: inv.spec.Name, Dur: p.eng.Now().Sub(inv.arrival), Aux: obs.DropOOMFailure})
		p.release(inv)
		p.finishInstance(inst, true)
		p.pumpQueue()
		return
	}

	wall := sim.Duration(p.rng.Jitter(float64(inv.spec.ExecTime), 0.08))
	if rep.DeoptApplied && inv.spec.DeoptSlowdown > 1 {
		wall = sim.Duration(float64(wall) * inv.spec.DeoptSlowdown)
	}
	// Split the interference wall time into its GC and refault shares
	// for phase attribution. The total is computed in one WorkDuration
	// call (then divided) so the modeled wall is bit-identical to the
	// pre-tracing model; gcWall + faultWall == interference exactly.
	interference := sim.WorkDuration(gcCost+faultCost, p.cfg.PerInstanceCPU)
	gcWall := sim.WorkDuration(gcCost, p.cfg.PerInstanceCPU)
	if gcWall > interference {
		gcWall = interference
	}
	faultWall := interference - gcWall
	wall += interference

	// Dur is the full modeled wall; Aux/Bytes carry the exact GC and
	// refault (reclaim-interference) shares of it, so attribution tiles
	// the execution segment without re-deriving rounding.
	p.bus.Emit(obs.Event{Kind: obs.EvInvokeStart, Inst: inst.ID, Invo: inv.id,
		Name: inv.spec.Name, Dur: wall, Aux: int64(gcWall), Bytes: int64(faultWall)})
	inv.inst, inv.dur = inst, wall
	inv.arm(stepExec, wall)
	p.maybeScheduleOOMKill(inv, inst, wall)
}

// completeStage handles a stage finishing: post-exec policy, freeze,
// chain continuation, latency accounting, and queue pumping.
func (p *Platform) completeStage(inv *invocation, inst *container.Instance) {
	// Post-execution policy work happens on the instance's own CPU
	// share before the freeze (the eager baseline's overhead).
	var postWall sim.Duration
	if p.cfg.Policy == PolicyEager {
		inst.Runtime.CollectFull(true) // stock hook: aggressive (§4.7)
		postWall = sim.WorkDuration(inst.Runtime.DrainGCCost(), p.cfg.PerInstanceCPU)
	}

	if postWall > 0 {
		tm := p.timers.get(p)
		tm.inst, tm.postGC, tm.dur = inst, true, postWall
		tm.ev.ScheduleAfter(postWall)
	} else {
		p.finishInstance(inst, false)
		p.pumpQueue()
	}

	if inv.stage+1 < inv.spec.ChainLength {
		inv.stage++
		p.startStage(inv)
		return
	}

	// Chain complete: downstream consumed all intermediates.
	for _, si := range inv.instances {
		if si.Status() != container.Dead {
			si.State.ReleaseIntermediates()
		}
	}
	p.stats.Completions++
	p.bus.Emit(obs.Event{Kind: obs.EvInvokeComplete, Inst: inst.ID, Invo: inv.id,
		Name: inv.spec.Name, Dur: p.eng.Now().Sub(inv.arrival)})
	latency := p.eng.Now().Sub(inv.arrival).Millis()
	p.stats.Latency.Add(latency)
	if p.stats.PerFunction == nil {
		p.stats.PerFunction = make(map[string]*metrics.Distribution)
	}
	d := p.stats.PerFunction[inv.spec.Name]
	if d == nil {
		d = &metrics.Distribution{}
		p.stats.PerFunction[inv.spec.Name] = d
	}
	d.Add(latency)
	if inv.waited > 0 {
		p.stats.QueueWait.Add(inv.waited.Millis())
	}
	p.release(inv)
}

// finishInstance releases the execution resources and either freezes
// the instance into the cache or destroys it.
func (p *Platform) finishInstance(inst *container.Instance, kill bool) {
	p.releaseCPU(p.cfg.PerInstanceCPU)
	delete(p.inFlight, inst.ID)
	if kill || p.cfg.Snapshot {
		// Killed instances die; SnapStart-style platforms keep
		// nothing warm either — the next request restores the
		// snapshot.
		p.bus.Emit(obs.Event{Kind: obs.EvDestroy, Inst: inst.ID, Name: inst.Spec.Name})
		p.destroy(inst)
		return
	}
	inst.Freeze(p.eng.Now())
	p.putBack(poolKey{inst.Spec.Name, inst.Stage}, inst)
	p.noteFreeze(inst)
	p.ensureCacheFits()
	p.scheduleKeepAlive(inst)
}

// scheduleKeepAlive arranges the idle-timeout eviction.
func (p *Platform) scheduleKeepAlive(inst *container.Instance) {
	if p.cfg.KeepAlive <= 0 {
		return
	}
	tm := p.timers.get(p)
	tm.inst, tm.frozenAt = inst, inst.FrozenAt()
	tm.ev.ScheduleAfter(p.cfg.KeepAlive)
}

// pumpQueue retries queued invocations in arrival order, stopping at
// the first that still cannot start (FIFO fairness).
func (p *Platform) pumpQueue() {
	for len(p.queue) > 0 {
		inv := p.queue[0]
		if !p.tryStart(inv) {
			return
		}
		inv.waited += p.eng.Now().Sub(inv.enqueued)
		p.queue = p.queue[1:]
		p.noteQueueDepth()
	}
}

// QueueLength reports how many invocations await admission.
func (p *Platform) QueueLength() int { return len(p.queue) }

// cpuEpsilon is the CPU pool's float tolerance: repeated acquire and
// release leave residues this small, which are bookkeeping noise, not
// capacity.
const cpuEpsilon = 1e-9

// acquireCPU/releaseCPU manage the execution CPU pool.
func (p *Platform) acquireCPU(share float64) {
	if p.cpuAvail < share-cpuEpsilon {
		panic("faas: CPU pool over-committed")
	}
	p.cpuAvail -= share
}

func (p *Platform) releaseCPU(share float64) {
	p.cpuAvail += share
	if p.cpuAvail > p.cfg.CPUs+cpuEpsilon {
		panic("faas: CPU pool over-released")
	}
}

// IdleCPU reports the unallocated share of the CPU pool, which
// Desiccant's reclamation is allowed to use (§4.5.2).
func (p *Platform) IdleCPU() float64 { return p.cpuAvail }

// TryAcquireIdleCPU grants up to want CPUs from the idle pool for
// reclamation work, returning the granted share (possibly zero). A
// pool holding no more than a float residue grants nothing: work
// paced at such a share would never finish.
func (p *Platform) TryAcquireIdleCPU(want float64) float64 {
	grant := minF(want, p.cpuAvail)
	if grant <= cpuEpsilon {
		return 0
	}
	p.cpuAvail -= grant
	return grant
}

// ReleaseIdleCPU returns a reclamation grant.
func (p *Platform) ReleaseIdleCPU(share float64) { p.releaseCPU(share) }

// AddReclaimCPU accounts reclamation core-time (reported separately
// from function CPU).
func (p *Platform) AddReclaimCPU(d sim.Duration) { p.stats.ReclaimCPU += d }

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
