package workload

import (
	"fmt"
	"math"

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
	// window is the FIFO of the runs of live temporaries, oldest
	// first: entries [windowHead, len) name the piece holding each
	// run's oldest live cluster, older entries are dead. Popping by
	// head index instead of reslicing keeps the slice re-anchored at
	// its base, so appends reuse capacity instead of reallocating as
	// the front erodes. windowBytes and windowClusters sum the live
	// clusters the window holds.
	window         []mm.Ref
	windowHead     int
	windowBytes    int64
	windowClusters int64
	// intermediates names the runs of chain data awaiting the
	// downstream stage, each by its oldest piece.
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

// Invocations returns how many bodies this state has run, counting a
// failed one once it got past rebuilding the weak cache.
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

	// The first body initializes, and it counts as executed once it
	// has begun to: a body that fails mid-initialization leaves its
	// statics live, and a later body on the same heap must not build
	// them a second time on top.
	st.room = rt.Headroom(sp.ObjectSize)
	st.invocations++
	if st.invocations == 1 {
		n, err := st.initialize(rt, rng)
		rep.AllocatedBytes += n
		if err != nil {
			return rep, err
		}
	}

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
	n, err := st.allocTemps(rt, volume)
	rep.AllocatedBytes += n
	if err != nil {
		return rep, fmt.Errorf("%s: body: %w", sp.Name, err)
	}
	for left := intermediate; left > 0; {
		size := min(left, sp.ObjectSize)
		r, n, err := st.place(rt, size, left/size)
		if err != nil {
			return rep, fmt.Errorf("%s: intermediate: %w", sp.Name, err)
		}
		rep.AllocatedBytes += n * size
		st.intermediates = append(st.intermediates, r)
		left -= n * size
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
		n, err := st.allocTemps(rt, churnPerStatic)
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
		n, err := st.allocTemps(rt, spike)
		total += n
		if err != nil {
			return total, fmt.Errorf("%s: init spike: %w", sp.Name, err)
		}
	}
	return total, nil
}

// allocTemps allocates volume bytes of temporaries in cluster-sized
// objects, killing the oldest once the live window exceeds the working
// set.
//
// Back-to-back clusters of one size that the room covers are one run
// (place): no collection runs while they land, so nothing can tell
// them from clusters placed one by one. Nor can killing the window's
// oldest clusters once after the run instead of after each cluster:
// each kill only trims the window's front until its bytes fit the
// working set, so the clusters left live are the longest suffix of
// the window that fits (at least one), whether it is trimmed once or
// in steps, and no collection reads the kills in between.
func (st *State) allocTemps(rt runtime.Runtime, volume int64) (int64, error) {
	var total int64
	for total < volume {
		size := min(st.Spec.ObjectSize, volume-total)
		r, n, err := st.place(rt, size, (volume-total)/size)
		if err != nil {
			return total, err
		}
		total += n * size
		st.window = append(st.window, r)
		st.windowBytes += n * size
		st.windowClusters += n
		st.trimWindow()
	}
	return total, nil
}

// place makes up to n clusters of size bytes and returns their Ref and
// how many it made: as one run, as many as the room covers, or a
// single ordinary object when the room covers none.
func (st *State) place(rt runtime.Runtime, size, n int64) (mm.Ref, int64, error) {
	if k := min(n, st.room/size, math.MaxInt32); k > 0 {
		st.room -= k * size
		return rt.AllocateRun(size, int32(k)), k, nil
	}
	o, err := st.allocate(rt, size)
	return o, 1, err
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

// trimWindow kills the window's oldest clusters while it holds more
// than the working set and more than one cluster. A piece whose last
// cluster dies hands its place in the window to the next piece of its
// run, if any, before a collection can free its slot.
func (st *State) trimWindow() {
	ws := st.Spec.WorkingSet
	for st.windowBytes > ws && st.windowClusters > 1 {
		r := st.window[st.windowHead]
		o := st.objs.At(r)
		k := min(int64(o.Count-o.Killed), (st.windowBytes-ws+o.Size-1)/o.Size, st.windowClusters-1)
		o.Kill(int32(k))
		st.windowBytes -= k * o.Size
		st.windowClusters -= k
		if o.Dead {
			if o.Next != mm.NoRef {
				st.window[st.windowHead] = o.Next
			} else {
				st.windowHead++
			}
		}
	}
	// Slide the live tail down once the dead prefix dominates, so the
	// buffer stays bounded by the working set.
	if st.windowHead > len(st.window)/2 {
		n := copy(st.window, st.window[st.windowHead:])
		st.window = st.window[:n]
		st.windowHead = 0
	}
}

// killRun kills every live cluster of the run whose oldest live piece
// is r.
func (st *State) killRun(r mm.Ref) {
	for r != mm.NoRef {
		o := st.objs.At(r)
		o.Kill(o.Count - o.Killed)
		r = o.Next
	}
}

func (st *State) killWindow() {
	for _, r := range st.window[st.windowHead:] {
		st.killRun(r)
	}
	st.window = st.window[:0]
	st.windowHead = 0
	st.windowBytes = 0
	st.windowClusters = 0
}

// ReleaseIntermediates marks all pending chain intermediates dead; the
// platform calls it on every stage when the chain's final stage
// completes (the downstream consumer has the data now).
func (st *State) ReleaseIntermediates() {
	for _, r := range st.intermediates {
		st.killRun(r)
	}
	st.intermediates = st.intermediates[:0]
}

// Objects calls f for every object the state still names: its static
// data, its weak cache, and every piece of the live temporaries of its
// window and of its pending intermediates. The recycling tests use it
// to check that a heap never frees an object its workload can still
// reach.
func (st *State) Objects(f func(mm.Ref)) {
	for _, r := range st.static {
		f(r)
	}
	if st.weak != mm.NoRef {
		f(st.weak)
	}
	for _, runs := range [2][]mm.Ref{st.window[st.windowHead:], st.intermediates} {
		for _, r := range runs {
			for ; r != mm.NoRef; r = st.objs.At(r).Next {
				f(r)
			}
		}
	}
}

// PendingIntermediateBytes reports live chain data awaiting a consumer.
func (st *State) PendingIntermediateBytes() int64 {
	var n int64
	for _, r := range st.intermediates {
		for ; r != mm.NoRef; r = st.objs.At(r).Next {
			n += st.objs.At(r).LiveBytes()
		}
	}
	return n
}
