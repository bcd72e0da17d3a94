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
)

// Heap is what CheckRecycling needs to see of a heap simulator.
type Heap struct {
	runtime.Runtime
	// Pool is the heap's object pool.
	Pool *mm.ObjectPool
	// Listed calls f for every object in the heap's own lists: its
	// spaces, chunks, regions or arenas.
	Listed func(f func(*mm.Object))
}

// CheckRecycling runs sequences random sequences of ops operations.
const (
	sequences = 200
	ops       = 300
)

// CheckRecycling drives fresh heaps from newHeap through seeded random
// sequences of allocations (weak or not, up to maxSize bytes), kills,
// full collections and reclaims, aggressive or not. Before each
// allocation the driver kills its oldest objects until it holds at
// most liveCap bytes; an allocation may still fail with
// runtime.ErrOutOfMemory, which a heap near its limit reports.
//
// After every operation it checks the mm.ObjectPool ownership rule: no
// freed object is still in one of the heap's lists or in the driver's
// live set, none is freed twice, and no weak object is freed. It also
// checks that LiveBytes equals the driver's own sum.
func CheckRecycling(t *testing.T, maxSize, liveCap int64, newHeap func() Heap) {
	t.Helper()
	for seq := 0; seq < sequences; seq++ {
		h := newHeap()
		rng := sim.NewRNG(uint64(seq) + 1)
		var live []*mm.Object
		var want int64
		for op := 0; op < ops; op++ {
			var what string
			switch r := rng.Intn(100); {
			case r < 60 || len(live) == 0:
				what = "allocate"
				for want > liveCap {
					live[0].Dead = true
					want -= live[0].Size
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
					t.Fatalf("seq %d op %d: allocate %d: %v", seq, op, size, err)
				default:
					live = append(live, o)
					want += size
				}
			case r < 85:
				what = "kill"
				i := rng.Intn(len(live))
				live[i].Dead = true
				want -= live[i].Size
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
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
			// still reads them: weak objects are never recycled.
			kept := live[:0]
			for _, o := range live {
				if o.Dead {
					want -= o.Size
					continue
				}
				kept = append(kept, o)
			}
			live = kept
			if msg := recycleViolation(h, live, want); msg != "" {
				t.Fatalf("seq %d op %d (%s): %s", seq, op, what, msg)
			}
		}
	}
}

// recycleViolation returns a description of the first broken
// recycling rule, or "".
func recycleViolation(h Heap, live []*mm.Object, want int64) string {
	freed := make(map[*mm.Object]bool, len(h.Pool.Freed()))
	for _, o := range h.Pool.Freed() {
		if o.Weak {
			return fmt.Sprintf("weak object %v on the free list", o)
		}
		if freed[o] {
			return fmt.Sprintf("%v on the free list twice", o)
		}
		freed[o] = true
	}
	msg := ""
	h.Listed(func(o *mm.Object) {
		if msg == "" && freed[o] {
			msg = fmt.Sprintf("freed %v still in a heap list", o)
		}
	})
	if msg != "" {
		return msg
	}
	for _, o := range live {
		if freed[o] {
			return fmt.Sprintf("freed %v still in the live set", o)
		}
	}
	if got := h.LiveBytes(); got != want {
		return fmt.Sprintf("LiveBytes %d, driver counts %d", got, want)
	}
	return ""
}
