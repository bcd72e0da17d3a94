package faas

import (
	"cmp"

	"desiccant/internal/container"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// The platform's per-request and per-instance events live in pooled
// records that embed a caller-owned sim.Event, bound to the record once
// (DESIGN §7). A record goes back to its free list when its work is
// done and serves the next request or instance, so the invocation path
// allocates nothing in steady state.

// Event label prefixes. A record labels its pending event with a
// prefix and the function's name (Label), built only for a fire hook.
const (
	labelRequest   = "request:"
	labelPostGC    = "postgc:"
	labelKeepAlive = "keepalive"
)

// A free list that runs dry allocates a slab of records: as many as it
// has made so far, from firstSlab up to recordSlab (or its own cap).
// Every freeze arms a keep-alive, so a busy platform draws timers in
// the thousands before the first one returns, while a cluster node
// that serves a few requests at a time keeps its slabs small.
const (
	firstSlab  = 4
	recordSlab = 64
)

// arrivalSlab caps the arrivals' slabs. A slab lives until the last of
// its records fires, and a trace replay's arrivals are submitted a
// function at a time, so a slab holds a run of one function's
// arrivals; a short run frees its memory soon after its arrivals fire.
const arrivalSlab = 8

// record is a pooled event record: bind attaches its event to the
// platform's engine, with the record as the handler.
type record[T any] interface {
	*T
	sim.Handler
	bind(p *Platform)
}

// freeList is a stack of pooled records, refilled a slab at a time
// (slab caps the slabs, recordSlab if 0). With max > 0 it keeps at
// most max records: put drops the rest, and a slab is garbage once
// none of its records is queued or kept.
type freeList[T any, R record[T]] struct {
	free []R
	max  int
	slab int
	made int
}

// get pops a record, bound to p.
func (f *freeList[T, R]) get(p *Platform) R {
	if len(f.free) == 0 {
		n := min(max(f.made, firstSlab), cmp.Or(f.slab, recordSlab))
		f.made += n
		slab := make([]T, n)
		for i := range slab {
			r := R(&slab[i])
			r.bind(p)
			f.free = append(f.free, r)
		}
	}
	n := len(f.free) - 1
	r := f.free[n]
	f.free = f.free[:n]
	return r
}

// put returns a record whose event has fired or been cancelled.
func (f *freeList[T, R]) put(r R) {
	if f.max > 0 && len(f.free) >= f.max {
		return
	}
	f.free = append(f.free, r)
}

// arrival is a submitted request until its arrival time. It is kept
// apart from the invocation record, and small, because a trace replay
// submits every arrival up front and so holds all of them at once: the
// request takes its invocation record only when it arrives. For the
// same reason arrivals come in small slabs (arrivalSlab) and their free
// list keeps at most recordSlab fired records (New sets both), so a
// replay's arrivals cost memory about as long as they are pending. A
// platform submitted to as it runs (the cluster router, a warm loop)
// reuses them.
type arrival struct {
	p    *Platform
	spec *workload.Spec
	ev   sim.Event
}

func (a *arrival) bind(p *Platform) {
	a.p = p
	a.ev.Bind(p.eng, a)
}

// Label names the arrival event.
func (a *arrival) Label() string { return labelRequest + a.spec.Name }

// Fire admits the request.
func (a *arrival) Fire() {
	p, spec, t := a.p, a.spec, a.ev.At()
	a.spec = nil
	p.arrivals.put(a)
	p.arrive(spec, t)
}

// Submit schedules a request for the named function at time t.
func (p *Platform) Submit(spec *workload.Spec, t sim.Time) {
	a := p.arrivals.get(p)
	a.spec = spec
	a.ev.Schedule(t)
}

// arrive starts a request at its arrival time t.
func (p *Platform) arrive(spec *workload.Spec, t sim.Time) {
	p.stats.Requests++
	p.nextInvo++
	inv := p.invos.get(p)
	inv.id, inv.spec, inv.arrival = p.cfg.InvoBase+p.nextInvo, spec, t
	p.bus.Emit(obs.Event{Kind: obs.EvInvokeSubmit, Inst: -1, Invo: inv.id, Name: spec.Name})
	p.startStage(inv)
}

// invocation tracks one request through its (possibly chained) stages,
// from its arrival to its completion or drop (release).
type invocation struct {
	p         *Platform
	id        int64 // causal-tracing invocation ID, assigned at arrival
	spec      *workload.Spec
	arrival   sim.Time
	stage     int
	enqueued  sim.Time // when it entered the admission queue
	waited    sim.Duration
	requeues  int // restarts after injected OOM kills
	instances []*container.Instance

	// ev is the request's one pending step, a boot, a thaw or an
	// execution, as step says.
	ev   sim.Event
	step invoStep
	// armed counts arms of ev over the record's life, across requests:
	// an event that can outlive the step it watches (chaos-oom) checks
	// it before it acts.
	armed uint64
	// The pending step's operands: the instance it runs on (thaw,
	// exec), the stem cell a boot assigns, the step's duration, and a
	// boot's kind (an obs.Boot* constant).
	inst     *container.Instance
	pw       *container.Prewarmed
	dur      sim.Duration
	bootKind int64
}

// invoStep names the step an invocation's event takes when it fires.
type invoStep uint8

const (
	stepBoot invoStep = iota
	stepThaw
	stepExec
)

// stepLabels are the steps' label prefixes.
var stepLabels = [...]string{stepBoot: "boot:", stepThaw: "thaw:", stepExec: "exec:"}

func (inv *invocation) bind(p *Platform) {
	inv.p = p
	inv.ev.Bind(p.eng, inv)
}

// arm schedules the invocation's next step d from now.
func (inv *invocation) arm(step invoStep, d sim.Duration) {
	inv.step = step
	inv.armed++
	inv.ev.ScheduleAfter(d)
}

// Label names the pending step's event.
func (inv *invocation) Label() string { return stepLabels[inv.step] + inv.spec.Name }

// Fire runs the invocation's pending step.
func (inv *invocation) Fire() {
	p := inv.p
	switch inv.step {
	case stepBoot:
		p.booted(inv)
	case stepThaw:
		p.stats.CPUBusy += sim.Duration(float64(warmStart) * p.cfg.PerInstanceCPU)
		p.execute(inv, inv.inst)
	case stepExec:
		p.stats.CPUBusy += sim.Duration(float64(inv.dur) * p.cfg.PerInstanceCPU)
		p.completeStage(inv, inv.inst)
	}
}

// release returns a finished request's record to the free list. The
// record keeps its arm count and its instance list's capacity.
func (p *Platform) release(inv *invocation) {
	clear(inv.instances)
	inv.instances = inv.instances[:0]
	inv.spec, inv.inst, inv.pw = nil, nil, nil
	inv.stage, inv.waited, inv.requeues = 0, 0, 0
	p.invos.put(inv)
}

// timer is one instance's step outside any request: the post-execution
// GC before a freeze, or the keep-alive timeout after it. It returns to
// the free list when it fires.
type timer struct {
	p    *Platform
	ev   sim.Event
	inst *container.Instance
	// postGC marks a post-execution GC of duration dur; otherwise the
	// timer is the keep-alive of the freeze at frozenAt.
	postGC   bool
	dur      sim.Duration
	frozenAt sim.Time
}

func (tm *timer) bind(p *Platform) {
	tm.p = p
	tm.ev.Bind(p.eng, tm)
}

// Label names the timer's event.
func (tm *timer) Label() string {
	if tm.postGC {
		return labelPostGC + tm.inst.Spec.Name
	}
	return labelKeepAlive
}

// Fire runs the timer's step and returns the record to the free list.
func (tm *timer) Fire() {
	p, inst := tm.p, tm.inst
	if tm.postGC {
		p.stats.CPUBusy += sim.Duration(float64(tm.dur) * p.cfg.PerInstanceCPU)
		p.finishInstance(inst, false)
		p.pumpQueue()
	} else if inst.Status() == container.Frozen && inst.FrozenAt() == tm.frozenAt {
		// A keep-alive whose instance was thawed (and maybe refrozen)
		// or evicted since still fires, as a no-op.
		p.evict(inst, obs.EvictKeepAlive)
		p.pumpQueue()
	}
	tm.inst, tm.postGC = nil, false
	p.timers.put(tm)
}
