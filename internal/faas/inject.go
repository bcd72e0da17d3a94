package faas

import (
	"cmp"
	"slices"

	"desiccant/internal/container"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// Injector is the hook the chaos layer implements to perturb the
// platform (Config.Chaos). Implementations must be deterministic
// functions of their own seeded state plus the call arguments — the
// platform consults them at fixed points of the event flow, so a
// deterministic injector yields a byte-identical fault schedule at
// any parallelism.
type Injector interface {
	// OOMKillAfter is consulted once per stage execution, after the
	// wall time is known. invo names the invocation on the chopping
	// block, so injected-fault events can carry the victim's ID.
	// Returning (d, true) with d < wall kills the instance d into the
	// execution — the cgroup OOM killer firing mid-invocation.
	// Returning ok=false leaves the execution alone.
	OOMKillAfter(invo int64, instID int, fn string, wall sim.Duration) (sim.Duration, bool)
}

// maybeScheduleOOMKill asks the injector whether this execution dies
// early and, if so, schedules the kill to cancel the completion event,
// the invocation's just-armed event. That record can move on before
// the kill fires: to its next stage, or, pooled, to another request.
// So the kill acts only while the record is still on the arm it saw.
func (p *Platform) maybeScheduleOOMKill(inv *invocation, inst *container.Instance, wall sim.Duration) {
	if p.cfg.Chaos == nil {
		return
	}
	d, ok := p.cfg.Chaos.OOMKillAfter(inv.id, inst.ID, inv.spec.Name, wall)
	if !ok || d >= wall {
		return
	}
	armed := inv.armed
	p.eng.After(d, "chaos-oom:"+inv.spec.Name, func() {
		if inv.armed != armed || !inv.ev.Pending() {
			return
		}
		inv.ev.Cancel()
		p.oomKill(inv, inst, d)
	})
}

// maxRequeues bounds how many times one invocation is restarted after
// injected OOM kills before the request is dropped.
const maxRequeues = 1

// oomKill destroys a running instance mid-invocation and requeues the
// victim request (bounded by maxRequeues, so a function that is killed
// every time cannot livelock the platform).
func (p *Platform) oomKill(inv *invocation, inst *container.Instance, ran sim.Duration) {
	p.stats.OOMKills++
	p.stats.CPUBusy += sim.Duration(float64(ran) * p.cfg.PerInstanceCPU)
	// Dur is how far into the execution the kill landed, so the span
	// builder can truncate the in-flight exec segment exactly.
	p.bus.Emit(obs.Event{Kind: obs.EvOOMKill, Inst: inst.ID, Invo: inv.id,
		Name: inv.spec.Name, Dur: ran, Bytes: inst.USS()})
	p.finishInstance(inst, true)
	if inv.requeues < maxRequeues {
		inv.requeues++
		p.stats.Requeues++
		p.startStage(inv)
		// Sample the queue even when the requeue was admitted on the
		// spot: the requeue instant is churn the queue-depth series
		// must show, and startStage only samples on enqueue.
		p.noteQueueDepth()
	} else {
		p.stats.Drops++
		p.bus.Emit(obs.Event{Kind: obs.EvWarning, Inst: inst.ID,
			Name: "request dropped after repeated oom-kills: " + inv.spec.Name})
		p.bus.Emit(obs.Event{Kind: obs.EvInvokeDrop, Inst: inst.ID, Invo: inv.id,
			Name: inv.spec.Name, Dur: p.eng.Now().Sub(inv.arrival), Aux: obs.DropRequeueExhausted})
		p.release(inv)
	}
	p.pumpQueue()
}

// noteInFlight records an instance leaving the cache (or being born)
// for execution; finishInstance clears the entry when the instance
// freezes or dies.
func (p *Platform) noteInFlight(inst *container.Instance) {
	if p.inFlight == nil {
		p.inFlight = make(map[int]*container.Instance)
	}
	p.inFlight[inst.ID] = inst
}

// InFlightCount reports instances currently out of the cache for
// execution (thawing, running, or in post-exec GC).
func (p *Platform) InFlightCount() int { return len(p.inFlight) }

// AppendInFlight appends the in-flight instances to dst, sorted by ID,
// and returns the extended slice, so machine-wide sweeps (the invariant
// checker's heap-bounds pass) stay deterministic despite the map they
// hang off.
func (p *Platform) AppendInFlight(dst []*container.Instance) []*container.Instance {
	start := len(dst)
	for _, inst := range p.inFlight {
		dst = append(dst, inst)
	}
	slices.SortFunc(dst[start:], func(a, b *container.Instance) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// LastInvoOf reports the invocation currently executing — or, for an
// idle instance, the one that most recently executed — on instance id;
// 0 when the instance is unknown or never ran one. The chaos layer
// uses it to name the victim invocation of instance-scoped faults
// (thaw races, lost freeze notifications). The cached-pool scan ranges
// over a map, but it only searches for one unique ID, so no ordering
// escapes.
func (p *Platform) LastInvoOf(id int) int64 {
	if inst := p.inFlight[id]; inst != nil {
		return inst.LastInvo()
	}
	for _, pool := range p.cached {
		for _, inst := range pool {
			if inst.ID == id {
				return inst.LastInvo()
			}
		}
	}
	return 0
}

// CachedCount reports the frozen instances currently in the cache.
func (p *Platform) CachedCount() int { return p.occupancy.Len() }

// PrewarmedTotal reports stem cells alive across all languages,
// including ones popped from the pool but not yet assigned (their
// address spaces already exist).
func (p *Platform) PrewarmedTotal() int {
	n := p.pendingAssign
	for _, pool := range p.prewarm {
		n += len(pool)
	}
	return n
}

// AccountedInstances is the platform's own census of live address
// spaces: cached + in-flight + prewarmed. The invariant checker holds
// this equal to the machine's address-space count — a leaked or
// double-destroyed space shows up as a mismatch.
func (p *Platform) AccountedInstances() int {
	return p.CachedCount() + p.InFlightCount() + p.PrewarmedTotal()
}
