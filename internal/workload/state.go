package workload

import (
	"fmt"

	"desiccant/internal/mm"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
)

// State is the mutable per-instance, per-stage execution state of a
// function: its static objects, weak caches, the temporary working-set
// window, and any intermediate chain data awaiting the downstream
// stage. It names its objects by Ref into the pool of the runtime it
// runs against, and kills them through that pool.
type State struct {
	Spec  *Spec
	Stage int

	objs        *mm.ObjectPool
	invocations int
	static      []mm.Ref
	weak        mm.Ref
	// window is the FIFO of live temporaries: entries [windowHead,
	// len) are live, older ones already dead. Popping by head index
	// instead of reslicing keeps the slice re-anchored at its base, so
	// appends reuse capacity instead of reallocating as the front
	// erodes. A NoRef entry is a temporary placed dead on arrival; the
	// window holds one only while allocTemps runs (see there).
	window        []mm.Ref
	windowHead    int
	windowBytes   int64
	intermediates []mm.Ref
	// room is the runtime's Headroom at the state's last query, less
	// every byte the state has allocated since: what the heap still
	// places before its next collection. It is queried afresh at the
	// start of every body, since collections run between bodies.
	room int64
	// deoptWindow counts the invocations still paying the JIT
	// re-optimization penalty after an aggressive collection cleared
	// the weak code caches.
	deoptWindow int
}

// NewState creates the state for one stage of a function in one
// instance, whose runtime's objects live in objs; its lists come from
// objs too. Stage is in [0, Spec.ChainLength).
func NewState(spec *Spec, stage int, objs *mm.ObjectPool) *State {
	if stage < 0 || stage >= spec.ChainLength {
		panic(fmt.Sprintf("workload: stage %d out of range for %s", stage, spec.Name))
	}
	return &State{Spec: spec, Stage: stage, objs: objs, weak: mm.NoRef,
		static: objs.List(), window: objs.List(), intermediates: objs.List()}
}

// Release hands the state's emptied lists to its pool for the next
// cold boot. The instance is dying: the state must not run again, and
// its runtime is released next.
func (st *State) Release() {
	st.objs.PutList(st.static)
	st.objs.PutList(st.window)
	st.objs.PutList(st.intermediates)
	*st = State{Spec: st.Spec, Stage: st.Stage, weak: mm.NoRef}
}

// Invocations returns how many times this state has executed.
func (st *State) Invocations() int { return st.invocations }

// BodyReport summarizes one body execution for the latency model.
type BodyReport struct {
	// DeoptApplied reports that the weak caches had been cleared by an
	// aggressive collection, so this execution pays the
	// function-specific DeoptSlowdown while the JIT re-optimizes.
	DeoptApplied bool
	// AllocatedBytes actually requested from the runtime.
	AllocatedBytes int64
}

// RunBody performs one body execution against the runtime: it rebuilds
// cleared weak caches, performs first-invocation initialization,
// allocates the body's temporaries under the working-set window, kills
// the temporaries at exit, and produces intermediate chain data. The
// caller turns the report plus the runtime's drained GC cost and the
// address space's drained fault cost into latency.
func (st *State) RunBody(rt runtime.Runtime, rng *sim.RNG) (BodyReport, error) {
	var rep BodyReport
	sp := st.Spec

	// Weak caches: consume any pending deopt signal, then rebuild.
	// The JIT needs several executions to re-optimize, so the penalty
	// persists over a recovery window (§5.6 reports the slowdown over
	// the ten post-reclamation executions).
	if sp.WeakBytes > 0 {
		if rt.ConsumeDeoptPenalty() > 0 {
			st.deoptWindow = deoptRecoveryInvocations
		}
		if st.deoptWindow > 0 {
			rep.DeoptApplied = true
			st.deoptWindow--
		}
		// An aggressive collection marks the cache Dead and drops it
		// from the heap's lists but leaves its slot, so the Ref still
		// reads the verdict; the state then gives the slot back. The
		// Ref is let go first, so a failed allocation below leaves no
		// freed Ref in the state.
		if dead := st.weak; dead != mm.NoRef && st.objs.At(dead).Dead {
			st.weak = mm.NoRef
			st.objs.FreeWeak(dead)
		}
		if st.weak == mm.NoRef {
			o, err := rt.Allocate(sp.WeakBytes, runtime.AllocOptions{Weak: true})
			if err != nil {
				return rep, fmt.Errorf("%s: weak cache: %w", sp.Name, err)
			}
			rep.AllocatedBytes += sp.WeakBytes
			st.weak = o
		}
	}

	st.room = rt.Headroom(sp.ObjectSize)
	if st.invocations == 0 {
		n, err := st.initialize(rt, rng)
		rep.AllocatedBytes += n
		if err != nil {
			return rep, err
		}
	}
	st.invocations++

	// Body temporaries: allocate the (jittered) volume in object-size
	// clusters, letting data older than the working set die as the
	// body progresses. Then the intermediate data for the next chain
	// stage, which stays live past exit. It is built out of ordinary
	// objects, so under the eager baseline a forced full collection
	// promotes it into the old generation — touching additional pages
	// — instead of reclaiming it: the mapreduce anomaly of §5.2.
	var intermediate int64
	if st.Stage < sp.ChainLength-1 {
		intermediate = sp.IntermediateBytes
	}
	volume := int64(rng.Jitter(float64(sp.AllocPerInvoke), 0.1))
	n, err := st.allocTemps(rt, volume, intermediate)
	rep.AllocatedBytes += n
	if err != nil {
		return rep, fmt.Errorf("%s: body: %w", sp.Name, err)
	}
	if intermediate > 0 {
		remaining := intermediate
		for remaining > 0 {
			size := min(remaining, sp.ObjectSize)
			o, err := st.allocate(rt, size)
			if err != nil {
				return rep, fmt.Errorf("%s: intermediate: %w", sp.Name, err)
			}
			rep.AllocatedBytes += size
			st.intermediates = append(st.intermediates, o)
			remaining -= size
		}
	}

	// Function exit: every remaining temporary is garbage — frozen
	// garbage, once the platform pauses the instance.
	st.killWindow()
	return rep, nil
}

// deoptRecoveryInvocations is how many executions the JIT needs to
// re-optimize after its caches were aggressively collected.
const deoptRecoveryInvocations = 10

// initialize performs the first-invocation work: static state plus the
// initialization allocation spike. Static objects are interleaved
// with the churn — the way module state really materializes between
// parser/loader temporaries — which scatters long-lived data across
// the address space. Moving collectors compact it away; non-moving
// allocators (V8's old space, CPython arenas) are left fragmented,
// which is exactly what their frozen-garbage story depends on.
func (st *State) initialize(rt runtime.Runtime, rng *sim.RNG) (int64, error) {
	sp := st.Spec
	var total int64
	spike := int64(rng.Jitter(float64(sp.InitAllocBytes), 0.05))
	staticChunks := int((sp.StaticBytes + sp.ObjectSize - 1) / sp.ObjectSize)
	churnPerStatic := spike
	if staticChunks > 0 {
		churnPerStatic = spike / int64(staticChunks)
	}
	remaining := sp.StaticBytes
	for remaining > 0 {
		n, err := st.allocTemps(rt, churnPerStatic, -1)
		total += n
		if err != nil {
			return total, fmt.Errorf("%s: init spike: %w", sp.Name, err)
		}
		spike -= churnPerStatic
		size := min(remaining, sp.ObjectSize)
		o, err := st.allocate(rt, size)
		if err != nil {
			return total, fmt.Errorf("%s: static init: %w", sp.Name, err)
		}
		total += size
		st.static = append(st.static, o)
		remaining -= size
	}
	if spike > 0 {
		n, err := st.allocTemps(rt, spike, -1)
		total += n
		if err != nil {
			return total, fmt.Errorf("%s: init spike: %w", sp.Name, err)
		}
	}
	return total, nil
}

// allocTemps allocates volume bytes of temporaries in cluster-sized
// objects, killing the oldest once the live window exceeds the working
// set. tail is the bytes the body allocates after these temporaries
// before it exits, or -1 when the window outlives the call
// (initialization, whose window the body inherits).
//
// A temporary dies when the window's bytes from it to the newest
// temporary first exceed the working set, which depends only on the
// temporaries after it: a full cluster dies as the keep-th cluster
// after it lands, if the call allocates that many more full clusters.
// Otherwise it dies at the latest at function exit. When the heap's
// headroom covers every byte allocated from a temporary up to its
// death, no collection can see it live, so it is placed dead on
// arrival: the heap spends its bytes and pages but makes no object
// (runtime.AllocateDead, one call per run of such temporaries). Once
// the headroom covers everything up to exit, the rest of the call is
// one run and the window dies at once. Before that, the window holds
// a dead-on-arrival temporary as NoRef. It is a full cluster, and it
// leaves the window before the call returns: the keep-th cluster
// after it lands in the same call, and no allocation up to then can
// fail, since the headroom covers them all.
func (st *State) allocTemps(rt runtime.Runtime, volume, tail int64) (int64, error) {
	sp := st.Spec
	keep := max(1, sp.WorkingSet/sp.ObjectSize)
	windowSpan := (keep + 1) * sp.ObjectSize
	// dead is the run of dead-on-arrival bytes not yet placed: back to
	// back temporaries go to the heap as one run, before the next
	// object and at the end.
	var total, dead int64
	for total < volume {
		rest := volume - total
		if tail >= 0 && st.room >= rest+tail {
			// Everything left dies by function exit, before any
			// collection: the rest is part of the dead run, and the
			// live window may die now, since nothing reads it first.
			rt.AllocateDead(dead + rest)
			st.room -= rest
			st.killWindow()
			return volume, nil
		}
		size := min(sp.ObjectSize, rest)
		o := mm.NoRef
		if rest >= windowSpan && st.room >= windowSpan {
			dead += size
			st.room -= size
		} else {
			if dead > 0 {
				rt.AllocateDead(dead)
				dead = 0
			}
			var err error
			if o, err = st.allocate(rt, size); err != nil {
				return total, err
			}
		}
		total += size
		st.window = append(st.window, o)
		st.windowBytes += size
		for st.windowBytes > sp.WorkingSet && len(st.window)-st.windowHead > 1 {
			st.windowBytes -= st.kill(st.window[st.windowHead])
			st.windowHead++
		}
		// Slide the live tail down once the dead prefix dominates, so
		// the buffer stays bounded by the working set.
		if st.windowHead > len(st.window)/2 {
			n := copy(st.window, st.window[st.windowHead:])
			st.window = st.window[:n]
			st.windowHead = 0
		}
	}
	if dead > 0 {
		rt.AllocateDead(dead)
	}
	return total, nil
}

// allocate makes one ordinary object of size bytes. An object beyond
// the room may have run a collection, which moves the heap's
// headroom, so the heap is asked again.
func (st *State) allocate(rt runtime.Runtime, size int64) (mm.Ref, error) {
	o, err := rt.Allocate(size, runtime.AllocOptions{})
	if size <= st.room {
		st.room -= size
	} else {
		st.room = rt.Headroom(st.Spec.ObjectSize)
	}
	return o, err
}

// kill marks the temporary r dead and returns its size; a NoRef was
// a full cluster dead on arrival.
func (st *State) kill(r mm.Ref) int64 {
	if r == mm.NoRef {
		return st.Spec.ObjectSize
	}
	o := st.objs.At(r)
	o.Dead = true
	return o.Size
}

func (st *State) killWindow() {
	for _, r := range st.window[st.windowHead:] {
		st.kill(r)
	}
	st.window = st.window[:0]
	st.windowHead = 0
	st.windowBytes = 0
}

// ReleaseIntermediates marks all pending chain intermediates dead; the
// platform calls it on every stage when the chain's final stage
// completes (the downstream consumer has the data now).
func (st *State) ReleaseIntermediates() {
	for _, r := range st.intermediates {
		st.objs.At(r).Dead = true
	}
	st.intermediates = st.intermediates[:0]
}

// Objects calls f for every object the state still names: its static
// data, its weak cache, the live temporaries of its window and its
// pending intermediates. The recycling tests use it to check that a
// heap never frees an object its workload can still reach.
func (st *State) Objects(f func(mm.Ref)) {
	for _, r := range st.static {
		f(r)
	}
	if st.weak != mm.NoRef {
		f(st.weak)
	}
	for _, r := range st.window[st.windowHead:] {
		f(r)
	}
	for _, r := range st.intermediates {
		f(r)
	}
}

// PendingIntermediateBytes reports live chain data awaiting a consumer.
func (st *State) PendingIntermediateBytes() int64 {
	return st.objs.LiveBytes(st.intermediates)
}
