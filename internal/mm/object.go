// Package mm holds the managed-memory primitives shared by the heap
// simulators (hotspot, v8heap, g1gc, pyarena): the object model
// workloads allocate against, the per-heap ObjectPool that recycles
// collected objects, bump spaces layered over simulated OS regions,
// and the tracing-GC cost model.
//
// Objects are deliberately coarse: a workload allocates "clusters" of
// application objects (kilobytes at a time) rather than individual
// 16-byte cells, which keeps simulations fast while preserving the
// quantities the paper measures — bytes allocated, bytes live at
// function exit, pages touched. Recycling through the pool keeps a
// warm heap from allocating Go memory at all.
package mm

import "fmt"

// Object is one allocated cluster in a simulated heap.
type Object struct {
	// Size in bytes. Fixed at allocation.
	Size int64
	// Dead marks the object unreachable; the next GC that visits its
	// space reclaims it. Workload models flip this as data dies.
	Dead bool
	// Weak marks the object reachable only through a weak reference
	// (caches, JIT metadata). An ordinary GC retains it; an
	// "aggressive" collection (§4.7) reclaims it at the cost of a
	// deoptimization penalty on subsequent executions.
	Weak bool
	// Age counts the GC cycles the object has survived, driving
	// promotion decisions.
	Age uint8
	// Offset is the object's current byte offset within its owning
	// space or chunk. Maintained by the owning heap; moves on
	// copying/compacting collections.
	Offset int64
}

func (o *Object) String() string {
	state := "live"
	if o.Dead {
		state = "dead"
	}
	if o.Weak {
		state += ",weak"
	}
	return fmt.Sprintf("obj{%dB %s age=%d @%d}", o.Size, state, o.Age, o.Offset)
}

// Collectible reports whether a collection with the given
// aggressiveness reclaims the object.
func (o *Object) Collectible(aggressive bool) bool {
	if o.Dead {
		return true
	}
	return aggressive && o.Weak
}

// LiveBytes sums the sizes of objects that survive a non-aggressive
// collection.
func LiveBytes(objs []*Object) int64 {
	var n int64
	for _, o := range objs {
		if !o.Dead {
			n += o.Size
		}
	}
	return n
}

// DeadBytes sums the sizes of objects a non-aggressive collection
// would reclaim.
func DeadBytes(objs []*Object) int64 {
	var n int64
	for _, o := range objs {
		if o.Dead {
			n += o.Size
		}
	}
	return n
}
