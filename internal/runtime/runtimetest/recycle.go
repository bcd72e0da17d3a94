// Package runtimetest holds test drivers shared by the heap
// simulators' own tests.
package runtimetest

import (
	"errors"
	"fmt"
	"testing"

	"desiccant/internal/mm"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Model is a heap simulator: a Runtime with the lifetime counters its
// embedded runtime.HeapCore provides.
type Model interface {
	runtime.Runtime
	Stats() runtime.GCStats
}

// Heap is what CheckRecycling needs to see of a heap simulator.
type Heap struct {
	Model
	// Language is the language the heap's runtime executes.
	Language runtime.Language
	// Listed calls f for every Ref in the heap's own lists: its
	// spaces, chunks, regions or arenas.
	Listed func(f func(mm.Ref))
}

// CheckRecycling runs lives heap lifetimes of ops operations each,
// spread over workers parallel subtests.
const (
	lives   = 200
	ops     = 300
	workers = 4
)

// CheckRecycling drives heaps from newHeap through seeded random
// lives. Each life is born (newHeap, whose pool is usually one an
// earlier life released) and must start with an empty slab, runs,
// hands its workload state's lists back, is released, and must then
// panic on every use. The lives run on parallel subtests, so released
// pools change goroutines the way they do between the experiments'
// worker pool cells. A life's operations are allocations (weak or not,
// up to maxSize bytes), kills, body executions of a small two-stage
// function through a workload.State, full collections and reclaims,
// aggressive or not. Before each allocation the driver kills its oldest objects
// until it holds at most liveCap bytes; an allocation or a body may
// still fail with runtime.ErrOutOfMemory, which a heap near its limit
// reports.
//
// After every operation it checks the mm.ObjectPool ownership rule: no
// freed Ref is still in one of the heap's lists, in the driver's live
// set or reachable from the live workload.State, none is freed twice,
// and a weak Ref is freed only by its state: only one that was the
// state's weak cache, and only once it is Dead. It also checks that
// LiveBytes equals the driver's own sum plus the state's.
func CheckRecycling(t *testing.T, maxSize, liveCap int64, newHeap func() Heap) {
	t.Helper()
	for w := 0; w < workers; w++ {
		t.Run(fmt.Sprintf("worker%d", w), func(t *testing.T) {
			t.Parallel()
			for life := w; life < lives; life += workers {
				checkLife(t, life, maxSize, liveCap, newHeap())
			}
		})
	}
}

// checkLife runs one life of h, seeded by its index.
func checkLife(t *testing.T, life int, maxSize, liveCap int64, h Heap) {
	t.Helper()
	rng := sim.NewRNG(uint64(life) + 1)
	objs := h.Objects()
	if objs.Len() != 0 || len(objs.Freed()) != 0 {
		t.Fatalf("life %d: born with %d slab slots, %d freed", life, objs.Len(), len(objs.Freed()))
	}
	st := workload.NewState(bodySpec(h.Language), 0, objs)
	var live []mm.Ref
	// held collects every Ref the state has held as its weak cache.
	held := make(map[mm.Ref]bool)
	var want int64
	for op := 0; op < ops; op++ {
		st.Objects(func(r mm.Ref) {
			if objs.At(r).Weak {
				held[r] = true
			}
		})
		var what string
		switch r := rng.Intn(100); {
		case r < 55 || len(live) == 0:
			what = "allocate"
			for want > liveCap {
				o := objs.At(live[0])
				o.Dead = true
				want -= o.Size
				live = live[1:]
			}
			size := 1 + rng.Int63n(64<<10)
			if rng.Intn(20) == 0 {
				size = 1 + rng.Int63n(maxSize)
			}
			o, err := h.Allocate(size, runtime.AllocOptions{Weak: rng.Intn(10) == 0})
			switch {
			case errors.Is(err, runtime.ErrOutOfMemory):
			case err != nil:
				t.Fatalf("life %d op %d: allocate %d: %v", life, op, size, err)
			default:
				live = append(live, o)
				want += size
			}
		case r < 78:
			what = "kill"
			i := rng.Intn(len(live))
			o := objs.At(live[i])
			o.Dead = true
			want -= o.Size
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case r < 85:
			what = "invoke"
			if _, err := st.RunBody(h, rng); err != nil && !errors.Is(err, runtime.ErrOutOfMemory) {
				t.Fatalf("life %d op %d: invoke: %v", life, op, err)
			}
			h.DrainGCCost()
			if rng.Intn(2) == 0 {
				// The chain's last stage consumed the intermediates.
				st.ReleaseIntermediates()
			}
		case r < 93:
			aggressive := rng.Intn(2) == 0
			what = fmt.Sprintf("collect(aggressive=%v)", aggressive)
			h.CollectFull(aggressive)
		default:
			aggressive := rng.Intn(2) == 0
			what = fmt.Sprintf("reclaim(aggressive=%v)", aggressive)
			h.Reclaim(aggressive)
		}
		// An aggressive collection kills weak objects. The driver
		// still reads them: no collector recycles a weak object.
		kept := live[:0]
		for _, r := range live {
			if o := objs.At(r); o.Dead {
				want -= o.Size
				continue
			}
			kept = append(kept, r)
		}
		live = kept
		if msg := recycleViolation(h, live, st, held, want); msg != "" {
			t.Fatalf("life %d op %d (%s): %s", life, op, what, msg)
		}
	}
	st.Release()
	h.Release()
	if msg := releasedViolation(h.Model); msg != "" {
		t.Fatalf("life %d: released heap: %s", life, msg)
	}
}

// bodySpec is a small two-stage function for a runtime of the given
// language: static data, a weak cache, a working-set window of
// temporaries and intermediates, all in clusters that fit any heap the
// models' recycling tests build.
func bodySpec(lang runtime.Language) *workload.Spec {
	return &workload.Spec{
		Name: "recycle-body", Language: lang, ChainLength: 2,
		InitAllocBytes: 256 << 10, StaticBytes: 64 << 10, WeakBytes: 32 << 10,
		AllocPerInvoke: 512 << 10, WorkingSet: 128 << 10, ObjectSize: 16 << 10,
		IntermediateBytes: 48 << 10,
	}
}

// recycleViolation returns a description of the first broken
// recycling rule, or "". held holds the Refs the state has held as its
// weak cache.
func recycleViolation(h Heap, live []mm.Ref, st *workload.State, held map[mm.Ref]bool, want int64) string {
	objs := h.Objects()
	freed := make(map[mm.Ref]bool, len(objs.Freed()))
	for _, r := range objs.Freed() {
		if r < 0 || int(r) >= objs.Len() {
			return fmt.Sprintf("Ref %d on the free list is outside the %d-slot slab", r, objs.Len())
		}
		if o := objs.At(r); o.Weak && !(held[r] && o.Dead) {
			return fmt.Sprintf("weak Ref %d %v on the free list, not a dead cache of the state", r, o)
		}
		if freed[r] {
			return fmt.Sprintf("Ref %d on the free list twice", r)
		}
		freed[r] = true
	}
	msg := ""
	h.Listed(func(r mm.Ref) {
		if msg == "" && freed[r] {
			msg = fmt.Sprintf("freed Ref %d still in a heap list", r)
		}
	})
	st.Objects(func(r mm.Ref) {
		if msg == "" && freed[r] {
			msg = fmt.Sprintf("freed Ref %d still reachable from the workload state", r)
		}
		want += objs.At(r).LiveBytes()
	})
	if msg != "" {
		return msg
	}
	for _, r := range live {
		if freed[r] {
			return fmt.Sprintf("freed Ref %d still in the live set", r)
		}
	}
	if got := h.LiveBytes(); got != want {
		return fmt.Sprintf("LiveBytes %d, driver and state count %d", got, want)
	}
	return ""
}

// releasedViolation returns the first use of a released runtime that
// does not panic, or "".
func releasedViolation(rt Model) string {
	uses := []struct {
		name string
		use  func()
	}{
		{"Allocate", func() { _, _ = rt.Allocate(1, runtime.AllocOptions{}) }},
		{"Objects", func() { rt.Objects() }},
		{"CollectFull", func() { rt.CollectFull(false) }},
		{"Reclaim", func() { rt.Reclaim(false) }},
		{"LiveBytes", func() { rt.LiveBytes() }},
		{"HeapCommitted", func() { rt.HeapCommitted() }},
		{"HeapRange", func() { rt.HeapRange() }},
		{"DrainGCCost", func() { rt.DrainGCCost() }},
		{"ConsumeDeoptPenalty", func() { rt.ConsumeDeoptPenalty() }},
		{"Stats", func() { rt.Stats() }},
		{"Release", func() { rt.Release() }},
	}
	for _, u := range uses {
		if !panics(u.use) {
			return u.name + " did not panic"
		}
	}
	return ""
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
