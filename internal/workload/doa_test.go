package workload

import (
	"fmt"
	"testing"

	"desiccant/internal/hotspot"
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
)

// arm is one side of the dead-on-arrival differential: a runtime whose
// headroom a State sees only on the bulk arm, so the per-object arm
// makes every allocation an object. Both arms count the objects they
// make.
type arm struct {
	runtime.Runtime
	bulk   bool
	allocs int64
}

func (a *arm) Headroom(maxSize int64) int64 {
	if !a.bulk {
		return 0
	}
	return a.Runtime.Headroom(maxSize)
}

func (a *arm) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	a.allocs++
	return a.Runtime.Allocate(size, opts)
}

// armRun is one arm's heap, machine and state.
type armRun struct {
	*arm
	heap *hotspot.Heap
	m    *osmem.Machine
	as   *osmem.AddressSpace
	st   *State
}

func newArmRun(t testing.TB, spec *Spec, stage int, budget int64, bulk bool) armRun {
	m := osmem.NewMachine()
	as := m.NewAddressSpace(spec.Name)
	h, err := hotspot.New(runtime.Config{AddressSpace: as, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return armRun{arm: &arm{Runtime: h, bulk: bulk}, heap: h, m: m, as: as, st: NewState(spec, stage, h.Objects())}
}

// view is everything an arm shows the rest of the simulator between
// bodies.
func (r armRun) view() string {
	var offsets []int64
	r.st.Objects(func(o mm.Ref) { offsets = append(offsets, r.Objects().At(o).Offset) })
	return fmt.Sprintf("stats %+v committed %d live %d resident %d gc %v usage %+v faults %d/%d cost %d phys %d peak %d pages %+v offsets %v",
		r.heap.Stats(), r.HeapCommitted(), r.LiveBytes(), r.heap.ResidentBytes(), r.DrainGCCost(),
		r.as.Usage(), r.as.MinorFaults(), r.as.MajorFaults(), r.as.DrainFaultCost(),
		r.m.PhysPages(), r.m.PeakPhysBytes(), r.m.PageCounters(), offsets)
}

// unbacked counts the state's live objects with a page that is not
// resident. An object's bytes are written when the heap places or
// moves it, and nothing in these runs swaps or releases the pages
// under a live object, so there must be none: a deferred page touch
// that never landed shows here even when both arms share it.
func (r armRun) unbacked() int {
	va, _ := r.HeapRange()
	n := 0
	r.st.Objects(func(ref mm.Ref) {
		o := r.Objects().At(ref)
		if o.Dead {
			return
		}
		first := o.Offset >> osmem.PageShift
		end := (o.Offset + o.Size + osmem.PageSize - 1) >> osmem.PageShift
		if r.as.PmapRange(va+o.Offset, o.Size) != (end-first)*osmem.PageSize {
			n++
		}
	})
	return n
}

// compareArms runs spec's stage for invocations bodies on a per-object
// and a bulk hotspot heap from the same random streams, with full
// collections, aggressive ones and reclaims interleaved, and fails on
// the first difference either arm shows or the first live object
// either arm left on a page it never touched. It returns how many
// objects each arm made.
func compareArms(t testing.TB, spec *Spec, stage int, budget int64, invocations int) (perObject, bulk int64) {
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
				t.Fatalf("%s stage %d at %d MiB, invocation %d (op %d), bulk %v: %d live objects on pages never touched",
					spec.Name, stage, budget>>20, i, op, r.bulk, n)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("%s stage %d at %d MiB, invocation %d (op %d):\nper-object %s\nbulk       %s",
				spec.Name, stage, budget>>20, i, op, got[0], got[1])
		}
	}
	return runs[0].allocs, runs[1].allocs
}

// deadOnArrivalPins is how many objects each arm of
// TestDeadOnArrivalMatchesPerObject makes per Java function, summed
// over its budgets and stages: every allocation on the per-object arm,
// and only those no headroom covers on the bulk arm.
var deadOnArrivalPins = map[string][2]int64{
	"time":            {11685, 1695},
	"sort":            {156357, 100569},
	"file-hash":       {116235, 75321},
	"image-resize":    {5742, 4455},
	"image-pipeline":  {21084, 17883},
	"hotel-searching": {757617, 551451},
	"mapreduce":       {579255, 407894},
	"specjbb2015":     {1519308, 936794},
}

// TestDeadOnArrivalMatchesPerObject checks that placing temporaries
// dead on arrival changes nothing the simulator can observe: every
// Table 1 Java function, at three budgets and every chain stage, shows
// the same collection counters, sizes, GC cost, page state, faults and
// live-object offsets after every body, collection and reclaim whether
// its State sees the heap's headroom or not.
func TestDeadOnArrivalMatchesPerObject(t *testing.T) {
	budgets := []int64{128 << 20, 256 << 20, 1 << 30}
	for _, spec := range ByLanguage(runtime.Java) {
		t.Run(spec.Name, func(t *testing.T) {
			var got [2]int64
			for _, budget := range budgets {
				for stage := 0; stage < spec.ChainLength; stage++ {
					p, b := compareArms(t, spec, stage, budget, 200)
					got[0] += p
					got[1] += b
				}
			}
			if want, ok := deadOnArrivalPins[spec.Name]; !ok || got != want {
				t.Errorf("%s: per-object arm made %d objects, bulk arm %d; want %d and %d",
					spec.Name, got[0], got[1], want[0], want[1])
			}
		})
	}
}

// FuzzDeadOnArrival draws a Java function's allocation shape and budget
// and checks that both arms of the dead-on-arrival differential agree,
// for the producing stage of a two-stage chain.
func FuzzDeadOnArrival(f *testing.F) {
	f.Add(uint32(32<<10), uint32(3<<20), uint32(6<<20), uint32(0), uint16(256))
	f.Add(uint32(16<<10), uint32(128<<10), uint32(256<<10), uint32(64<<10), uint16(128))
	f.Add(uint32(4<<20), uint32(18<<20), uint32(36<<20), uint32(8<<20), uint16(512))
	f.Add(uint32(64<<10), uint32(0), uint32(10<<20), uint32(1<<20), uint16(64))
	f.Add(uint32(100_000), uint32(250_000), uint32(1_000_003), uint32(150_001), uint16(96))
	f.Add(uint32(1<<20), uint32(40<<20), uint32(12<<20), uint32(3<<20), uint16(40))
	f.Add(uint32(1000), uint32(999), uint32(20_000), uint32(700), uint16(0))
	f.Add(uint32(3<<20), uint32(1<<20), uint32(7<<20), uint32(5<<20), uint16(0))
	f.Fuzz(func(t *testing.T, objectSize, workingSet, allocPerInvoke, intermediate uint32, budgetMiB uint16) {
		const invocations = 40
		base, err := Lookup("time")
		if err != nil {
			t.Fatal(err)
		}
		spec := *base
		spec.ChainLength = 2
		spec.ObjectSize = int64(objectSize%(8<<20)) + 1
		spec.AllocPerInvoke = int64(allocPerInvoke % (64 << 20))
		spec.WorkingSet = min(int64(workingSet), spec.AllocPerInvoke+spec.InitAllocBytes)
		spec.IntermediateBytes = int64(intermediate % (16 << 20))
		if err := spec.Validate(); err != nil {
			t.Skip(err)
		}
		once := spec.InitAllocBytes + spec.StaticBytes
		if (once+invocations*(spec.AllocPerInvoke+spec.IntermediateBytes))/spec.ObjectSize > 200_000 {
			t.Skip("too many objects")
		}
		budget := (int64(budgetMiB%1024) + 16) << 20
		compareArms(t, &spec, 0, budget, invocations)
	})
}
