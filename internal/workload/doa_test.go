package workload

import (
	"fmt"
	"testing"

	"desiccant/internal/hotspot"
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/v8heap"
)

// arm is one side of the cluster-run differential: a runtime whose
// headroom a State sees only on the run arm, so the per-cluster arm
// makes every cluster an object of its own (Count 1). Both arms count
// the objects they make (Allocate and AllocateRun calls) and sum the
// deoptimization penalty the State's bodies consume.
type arm struct {
	runtime.Runtime
	runs   bool
	allocs int64
	deopt  float64
}

func (a *arm) Headroom(maxSize int64) int64 {
	if !a.runs {
		return 0
	}
	return a.Runtime.Headroom(maxSize)
}

func (a *arm) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	a.allocs++
	return a.Runtime.Allocate(size, opts)
}

func (a *arm) AllocateRun(size int64, n int32) mm.Ref {
	a.allocs++
	return a.Runtime.AllocateRun(size, n)
}

func (a *arm) ConsumeDeoptPenalty() float64 {
	p := a.Runtime.ConsumeDeoptPenalty()
	a.deopt += p
	return p
}

// model is what the differential reads of a heap simulator besides
// the Runtime interface.
type model interface {
	runtime.Runtime
	Stats() runtime.GCStats
	ResidentBytes() int64
}

// chunked is a heap whose object offsets are relative to the chunk
// holding them (v8heap): EachPlaced names each object's chunk.
type chunked interface {
	EachPlaced(f func(r mm.Ref, chunk int64))
}

// runtimeOf names the heap simulator each language runs on.
var runtimeOf = map[runtime.Language]string{
	runtime.Java:       hotspot.RuntimeName,
	runtime.JavaScript: v8heap.RuntimeName,
}

// armRun is one arm's heap, machine and state.
type armRun struct {
	*arm
	heap model
	m    *osmem.Machine
	as   *osmem.AddressSpace
	st   *State
}

func newArmRun(t testing.TB, spec *Spec, stage int, budget int64, runs bool) armRun {
	m := osmem.NewMachine()
	as := m.NewAddressSpace(spec.Name)
	rt, err := runtime.New(runtimeOf[spec.Language], runtime.Config{AddressSpace: as, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.(model)
	return armRun{arm: &arm{Runtime: h, runs: runs}, heap: h, m: m, as: as, st: NewState(spec, stage, h.Objects())}
}

// liveClusters calls f with the region offset and size of every live
// cluster the state names, oldest first within each run: a run's live
// clusters lie at Offset + i·Size for i from Killed to Count, from the
// start of its chunk on a chunked heap.
func (r armRun) liveClusters(f func(off, size int64)) {
	var chunkOf map[mm.Ref]int64
	if c, ok := r.heap.(chunked); ok {
		chunkOf = make(map[mm.Ref]int64)
		c.EachPlaced(func(ref mm.Ref, chunk int64) { chunkOf[ref] = chunk })
	}
	r.st.Objects(func(ref mm.Ref) {
		o := r.Objects().At(ref)
		if o.Dead {
			return
		}
		base := chunkOf[ref]
		for i := int64(o.Killed); i < int64(o.Count); i++ {
			f(base+o.Offset+i*o.Size, o.Size)
		}
	})
}

// view is everything an arm shows the rest of the simulator between
// bodies, its live data cluster by cluster.
func (r armRun) view() string {
	var offsets []int64
	r.liveClusters(func(off, _ int64) { offsets = append(offsets, off) })
	var young int64
	if y, ok := r.heap.(interface{ YoungGenerationBytes() int64 }); ok {
		young = y.YoungGenerationBytes()
	}
	return fmt.Sprintf("stats %+v young %d committed %d live %d resident %d gc %v deopt %v usage %+v faults %d/%d cost %d phys %d peak %d pages %+v offsets %v",
		r.heap.Stats(), young, r.HeapCommitted(), r.LiveBytes(), r.heap.ResidentBytes(), r.DrainGCCost(), r.deopt,
		r.as.Usage(), r.as.MinorFaults(), r.as.MajorFaults(), r.as.DrainFaultCost(),
		r.m.PhysPages(), r.m.PeakPhysBytes(), r.m.PageCounters(), offsets)
}

// unbacked counts the state's live clusters with a page that is not
// resident. A cluster's bytes are written when the heap places or
// moves it, and nothing in these runs swaps or releases the pages
// under a live cluster, so there must be none: a deferred page touch
// that never landed shows here even when both arms share it. On a
// chunked heap a large object continues in further chunks, which need
// not follow its first, so only its first chunk's part is checked.
func (r armRun) unbacked() int {
	va, _ := r.HeapRange()
	_, chunked := r.heap.(chunked)
	n := 0
	r.liveClusters(func(off, size int64) {
		if chunked {
			size = min(size, v8heap.ChunkUsable)
		}
		first := off >> osmem.PageShift
		end := (off + size + osmem.PageSize - 1) >> osmem.PageShift
		if r.as.PmapRange(va+off, size) != (end-first)*osmem.PageSize {
			n++
		}
	})
	return n
}

// compareArms runs spec's stage for invocations bodies on a
// per-cluster and a run heap of the spec's language from the same
// random streams, with full collections, aggressive ones and reclaims
// interleaved, and fails on the first difference either arm shows or
// the first live cluster either arm left on a page it never touched. A
// body that fails leaves its heap to the next one, so both arms must
// also agree on what a failed body leaves behind. It returns how many
// objects each arm made.
func compareArms(t testing.TB, spec *Spec, stage int, budget int64, invocations int) (perCluster, withRuns int64) {
	t.Helper()
	runs := [2]armRun{newArmRun(t, spec, stage, budget, false), newArmRun(t, spec, stage, budget, true)}
	defer func() {
		for _, r := range runs {
			r.st.Release()
			r.Release()
		}
	}()
	rngs := [2]*sim.RNG{sim.NewRNG(1), sim.NewRNG(1)}
	ops := sim.NewRNG(2)
	for i := 0; i < invocations; i++ {
		op := ops.Intn(12)
		var got [2]string
		for k, r := range runs {
			rep, err := r.st.RunBody(r, rngs[k])
			s := fmt.Sprintf("body %+v err %v", rep, err)
			if op%3 == 0 {
				r.st.ReleaseIntermediates()
			}
			switch op {
			case 1:
				r.CollectFull(false)
			case 2:
				r.CollectFull(true)
			case 3:
				s += fmt.Sprintf(" reclaim %+v", r.Reclaim(false))
			case 4:
				s += fmt.Sprintf(" reclaim %+v", r.Reclaim(true))
			}
			got[k] = s + " " + r.view()
			if n := r.unbacked(); n > 0 {
				t.Fatalf("%s stage %d at %d MiB, invocation %d (op %d), runs %v: %d live clusters on pages never touched",
					spec.Name, stage, budget>>20, i, op, r.runs, n)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("%s stage %d at %d MiB, invocation %d (op %d):\nper-cluster %s\nruns        %s",
				spec.Name, stage, budget>>20, i, op, got[0], got[1])
		}
	}
	return runs[0].allocs, runs[1].allocs
}

// clusterRunPins is how many objects each arm of
// TestRunsMatchPerCluster makes per Table 1 function, summed over its
// budgets and stages: one per cluster on the per-cluster arm, and one
// per run or single on the run arm.
var clusterRunPins = map[string][2]int64{
	"time":            {11685, 1713},
	"sort":            {156357, 3726},
	"file-hash":       {116235, 3462},
	"image-resize":    {5742, 3715},
	"image-pipeline":  {21084, 15534},
	"hotel-searching": {757617, 11394},
	"mapreduce":       {579255, 7588},
	"specjbb2015":     {1519308, 18729},
	// JavaScript, on v8.
	"clock":         {5670, 1671},
	"dynamic-html":  {39804, 3708},
	"factor":        {15258, 2457},
	"fft":           {230811, 9530},
	"fibonacci":     {10485, 2139},
	"filesystem":    {29541, 2628},
	"matrix":        {96549, 4292},
	"pi":            {10461, 2091},
	"unionfind":     {39324, 2844},
	"web-server":    {29925, 3261},
	"data-analysis": {542820, 22528},
	"alexa":         {451296, 28647},
}

// TestRunsMatchPerCluster checks that placing clusters as runs changes
// nothing the simulator can observe: every Table 1 function, Java on
// hotspot and JavaScript on v8, at three budgets and every chain stage,
// shows the same collection counters, sizes, GC cost, deoptimization
// penalty, page state, faults and live-cluster chunks and offsets
// after every body, collection and reclaim whether its State sees the
// heap's headroom or not.
func TestRunsMatchPerCluster(t *testing.T) {
	budgets := []int64{128 << 20, 256 << 20, 1 << 30}
	for _, spec := range All() {
		t.Run(spec.Name, func(t *testing.T) {
			var got [2]int64
			for _, budget := range budgets {
				for stage := 0; stage < spec.ChainLength; stage++ {
					p, r := compareArms(t, spec, stage, budget, 200)
					got[0] += p
					got[1] += r
				}
			}
			if want, ok := clusterRunPins[spec.Name]; !ok || got != want {
				t.Errorf("%s: per-cluster arm made %d objects, run arm %d; want %d and %d",
					spec.Name, got[0], got[1], want[0], want[1])
			}
		})
	}
}

// FuzzClusterRuns draws a function's allocation shape, runtime and
// budget and checks that both arms of the cluster-run differential
// agree, for the producing stage of a two-stage chain. A Java shape
// runs on hotspot from 16 MiB; a JavaScript one runs on v8 with
// unionfind's weak cache from 5 MiB, where scavenges run out of old
// space and park survivors past the from space's capacity.
func FuzzClusterRuns(f *testing.F) {
	f.Add(uint32(32<<10), uint32(3<<20), uint32(6<<20), uint32(0), uint32(8<<20), uint16(256), false)
	f.Add(uint32(16<<10), uint32(128<<10), uint32(256<<10), uint32(64<<10), uint32(8<<20), uint16(128), false)
	f.Add(uint32(4<<20), uint32(18<<20), uint32(36<<20), uint32(8<<20), uint32(8<<20), uint16(512), false)
	f.Add(uint32(64<<10), uint32(0), uint32(10<<20), uint32(1<<20), uint32(8<<20), uint16(64), false)
	f.Add(uint32(100_000), uint32(250_000), uint32(1_000_003), uint32(150_001), uint32(8<<20), uint16(96), false)
	f.Add(uint32(1<<20), uint32(40<<20), uint32(12<<20), uint32(3<<20), uint32(8<<20), uint16(40), false)
	f.Add(uint32(1000), uint32(999), uint32(20_000), uint32(700), uint32(8<<20), uint16(0), false)
	f.Add(uint32(3<<20), uint32(1<<20), uint32(7<<20), uint32(5<<20), uint32(8<<20), uint16(0), false)
	// hotel-searching's shape on small heaps: a working set larger than
	// eden, so surviving runs overflow the to space and split.
	f.Add(uint32(32<<10), uint32(20<<20), uint32(12<<20), uint32(1<<20), uint32(96<<20), uint16(48), false)
	f.Add(uint32(32<<10), uint32(20<<20), uint32(12<<20), uint32(1<<20), uint32(96<<20), uint16(112), false)
	// fft's shape on v8: 64 KiB clusters, three to a chunk, at 256 MiB
	// and at 5, 9, 14 and 19 MiB.
	for _, budget := range []uint16{251, 0, 4, 9, 14} {
		f.Add(uint32(64<<10), uint32(3<<20), uint32(24<<20), uint32(0), uint32(4<<20), budget, true)
	}
	// The semispace-doubling regime: a live working set that keeps
	// every scavenge's survivors above the young generation's size.
	f.Add(uint32(32<<10), uint32(12<<20), uint32(48<<20), uint32(0), uint32(8<<20), uint16(507), true)
	// data-analysis and matrix on small budgets, intermediates live.
	f.Add(uint32(32<<10), uint32(1<<20), uint32(3<<20), uint32(2<<20), uint32(4<<20), uint16(2), true)
	f.Add(uint32(64<<10), uint32(2<<20), uint32(10<<20), uint32(512<<10), uint32(3<<20), uint16(6), true)
	f.Fuzz(func(t *testing.T, objectSize, workingSet, allocPerInvoke, intermediate, initAlloc uint32, budgetMiB uint16, js bool) {
		const invocations = 40
		name, floor := "time", int64(16)
		if js {
			name, floor = "unionfind", 5
		}
		base, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := *base
		spec.ChainLength = 2
		spec.ObjectSize = int64(objectSize%(8<<20)) + 1
		spec.AllocPerInvoke = int64(allocPerInvoke % (64 << 20))
		spec.InitAllocBytes = int64(initAlloc % (128 << 20))
		spec.WorkingSet = min(int64(workingSet), spec.AllocPerInvoke+spec.InitAllocBytes)
		spec.IntermediateBytes = int64(intermediate % (16 << 20))
		if err := spec.Validate(); err != nil {
			t.Skip(err)
		}
		once := spec.InitAllocBytes + spec.StaticBytes
		if (once+invocations*(spec.AllocPerInvoke+spec.IntermediateBytes))/spec.ObjectSize > 200_000 {
			t.Skip("too many objects")
		}
		budget := (int64(budgetMiB%1024) + floor) << 20
		compareArms(t, &spec, 0, budget, invocations)
	})
}
