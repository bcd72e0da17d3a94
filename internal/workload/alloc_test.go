package workload

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"

	_ "desiccant/internal/hotspot"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/v8heap"
)

// TestWarmInvocationAllocFree checks that a warm function body, and
// the eager baseline's forced collection after it, take no Go
// allocations once the heap has reached its steady state: collected
// objects are recycled through the heap's pool, the collectors reuse
// their object lists, and V8's arena reuses released chunk structs.
// It covers three Java functions and every JavaScript function, each
// vanilla and eager.
func TestWarmInvocationAllocFree(t *testing.T) {
	type allocCase struct {
		fn     string
		eager  bool
		warmup int // warm invocations before the measured ones
		// grow first runs a vanilla V8 heap until its young generation
		// is at its maximum.
		grow bool
	}
	cases := []allocCase{
		{"file-hash", false, 200, false}, {"file-hash", true, 200, false},
		{"sort", false, 200, false}, {"sort", true, 200, false},
		{"image-resize", false, 200, false}, {"image-resize", true, 200, false},
		{"fft", false, 200, false},
	}
	// The other JavaScript functions need a longer warm-up. A vanilla
	// V8 heap keeps doubling its young generation, over up to tens of
	// thousands of invocations, until it reaches its maximum. Each
	// doubling adds chunks as the semispaces fill: that is heap growth,
	// not a warm invocation, so those cases grow the heap first.
	for _, spec := range All() {
		if spec.Language != runtime.JavaScript {
			continue
		}
		if spec.Name != "fft" {
			cases = append(cases, allocCase{spec.Name, false, 1000, true})
		}
		cases = append(cases, allocCase{spec.Name, true, 1000, false})
	}
	const measured, budget = 1000, 256 << 20
	// V8's young ceiling at this budget: two 16 MiB semispaces (§3.3).
	const youngMax = 32 << 20
	for _, c := range cases {
		name := c.fn
		if c.eager {
			name += "/eager"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := Lookup(c.fn)
			if err != nil {
				t.Fatal(err)
			}
			m := osmem.NewMachine()
			rt, err := runtime.New(RuntimeFor(spec.Language), runtime.Config{
				AddressSpace: m.NewAddressSpace(c.fn),
				MemoryBudget: budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := NewState(spec, 0, rt.Objects())
			rng := sim.NewRNG(1)
			invoke := func() {
				if _, err := st.RunBody(rt, rng); err != nil {
					t.Fatal(err)
				}
				// The chain's last stage has consumed the intermediates
				// (none outside a chain).
				st.ReleaseIntermediates()
				if c.eager {
					rt.CollectFull(false)
				}
				rt.DrainGCCost()
			}
			if c.grow {
				v8 := rt.(*v8heap.Heap)
				for i := 0; v8.YoungGenerationBytes() != youngMax; i++ {
					if i == 100_000 {
						t.Fatalf("young generation still growing after %d invocations", i)
					}
					invoke()
				}
			}
			for i := 0; i < c.warmup; i++ {
				invoke()
			}
			// testing.AllocsPerRun rounds the mean down, which would
			// hide a few stray allocations; count them all instead.
			// The Go runtime mallocs too, and the count is process
			// wide: a background GC cycle and a new scheduler thread
			// each add a few. Turning the collector off waits for a
			// cycle the warm-up started and keeps the next from
			// starting; one P leaves the scheduler no idle P to start
			// a thread for.
			var before, after goruntime.MemStats
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
			goruntime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				invoke()
			}
			goruntime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("%d mallocs over %d warm invocations (%.2f per invocation), want 0",
					n, measured, float64(n)/measured)
			}
		})
	}
}

// TestEagerWeakCacheSlabBounded runs every function with a weak cache
// (unionfind and data-analysis, both JavaScript) through 1000
// invocations under the eager baseline's aggressive collection, which
// clears the cache every time, and checks that the heap's
// slab stops growing: the state gives each dead cache's slot back
// before it allocates the next. Before that, every invocation left one
// more dead weak slot behind (unionfind reached 1133 slots here).
func TestEagerWeakCacheSlabBounded(t *testing.T) {
	const invocations = 1000
	for _, spec := range All() {
		if spec.WeakBytes == 0 {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			m := osmem.NewMachine()
			rt, err := runtime.New(RuntimeFor(spec.Language), runtime.Config{
				AddressSpace: m.NewAddressSpace(spec.Name),
				MemoryBudget: 256 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Release()
			objs := rt.Objects()
			st := NewState(spec, 0, objs)
			defer st.Release()
			rng := sim.NewRNG(1)
			var slots [invocations]int
			for i := range slots {
				if _, err := st.RunBody(rt, rng); err != nil {
					t.Fatal(err)
				}
				st.ReleaseIntermediates()
				rt.CollectFull(true)
				rt.DrainGCCost()
				slots[i] = objs.Len()
			}
			// The first half settles the heap; the second may not add
			// a slot per ten invocations.
			if grown := slots[invocations-1] - slots[invocations/2-1]; grown > invocations/20 {
				t.Fatalf("slab grew %d slots over the last %d invocations (%d → %d)",
					grown, invocations/2, slots[invocations/2-1], slots[invocations-1])
			}
		})
	}
}
