// Package mm holds the managed-memory primitives shared by the heap
// simulators (hotspot, v8heap, g1gc, pyarena): the object model
// workloads allocate against, the per-heap ObjectPool that owns every
// object of one heap, bump spaces layered over simulated OS regions,
// and the tracing-GC cost model.
//
// Objects are deliberately coarse: a workload allocates "clusters" of
// application objects (kilobytes at a time) rather than individual
// 16-byte cells, which keeps simulations fast while preserving the
// quantities the paper measures — bytes allocated, bytes live at
// function exit, pages touched.
//
// No simulated object is a Go pointer. Each lives in its heap's
// ObjectPool, a flat slab of Objects, and everything else names it by
// Ref, an int32 index into that slab. Object lists are []Ref, which
// the Go garbage collector never scans and which append without write
// barriers. The ownership rules:
//
//   - A collector frees a Ref exactly once, at the moment it drops the
//     object from its last list (space, chunk, region or arena); New
//     may hand the slot out again at once.
//   - The pointer At returns is valid only until the pool's next New,
//     which may move the slab. Take it, use it, drop it.
//   - A collector never frees a weak Ref: the workload keeps its
//     weak-cache Ref across collections to see the cache die (Dead),
//     so the slot stays as the collection left it until its holder
//     has read the verdict and frees it (FreeWeak). A weak slot nobody
//     frees stays until Release.
//   - Release resets the slab in O(1): every Ref the pool handed out
//     becomes invalid at once, with no per-object walk.
//   - A Ref is a storage detail: no Ref value may reach an output or
//     decide an ordering.
//   - A dead run (BumpSpace.AllocateDead) has no Ref at all: a
//     workload places it only when it can prove the data dies before
//     the space's next collection, so no collector could ever see it
//     live. The space counts its bytes instead of listing them, and
//     the collection that resets the space counts them as collected.
package mm

import "fmt"

// Ref names one Object in its heap's ObjectPool.
type Ref int32

// NoRef is the Ref of no object.
const NoRef Ref = -1

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
//
//lint:allocfree
func (o *Object) Collectible(aggressive bool) bool {
	if o.Dead {
		return true
	}
	return aggressive && o.Weak
}
