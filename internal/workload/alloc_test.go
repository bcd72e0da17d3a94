package workload

import (
	goruntime "runtime"
	"testing"

	_ "desiccant/internal/hotspot"
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	_ "desiccant/internal/v8heap"
)

// TestWarmInvocationAllocFree checks that a warm function body, and
// the eager baseline's forced collection after it, take no Go
// allocations once the heap has reached its steady state: collected
// objects are recycled through the heap's pool and the collectors
// reuse their object lists.
//
// Left out: V8 chunk-struct churn. Whenever a v8heap collection
// releases semispace chunks and the space later grows back, arena.alloc
// makes a new chunk struct (with an empty object list) per acquisition.
// That happens under the eager path and, less often, on vanilla runs of
// functions whose young generation shrinks and regrows (clock,
// dynamic-html, factor, fibonacci: 0.06 to 1.7 mallocs per invocation).
func TestWarmInvocationAllocFree(t *testing.T) {
	cases := []struct {
		fn    string
		eager bool
	}{
		{"file-hash", false}, {"file-hash", true},
		{"sort", false}, {"sort", true},
		{"image-resize", false}, {"image-resize", true},
		{"fft", false},
	}
	const warmup, measured = 200, 1000
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
			m := osmem.NewMachine(osmem.DefaultFaultCosts())
			rt, err := runtime.New(RuntimeFor(spec.Language), runtime.Config{
				AddressSpace: m.NewAddressSpace(c.fn),
				MemoryBudget: 256 << 20,
				Cost:         mm.DefaultGCCostModel(),
			})
			if err != nil {
				t.Fatal(err)
			}
			st := NewState(spec, 0)
			rng := sim.NewRNG(1)
			invoke := func() {
				if _, err := st.RunBody(rt, rng); err != nil {
					t.Fatal(err)
				}
				if c.eager {
					rt.CollectFull(false)
				}
				rt.DrainGCCost()
			}
			for i := 0; i < warmup; i++ {
				invoke()
			}
			// testing.AllocsPerRun rounds the mean down, which would
			// hide a few stray allocations; count them all instead.
			var before, after goruntime.MemStats
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
