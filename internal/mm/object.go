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
//   - An object is a run: Count back-to-back clusters of Size bytes
//     each, placed by one bump (NewRun; New makes a run of one). Its
//     dead clusters are always a prefix (Killed), because workloads
//     kill temporaries oldest first; Kill extends the prefix and sets
//     Dead once it covers the run. A collector drops the prefix
//     (DropDead) and moves the live rest, so a run that died before
//     any collection saw it costs one list entry, not Count.
//   - A collector that cannot move a run's live clusters to one place
//     splits it into pieces (ObjectPool.Split), chained through Next
//     oldest first, and so does a chunked heap where a run crosses a
//     chunk boundary, when it places the run or moves it: each chunk
//     lists its own piece. The original Ref stays the oldest piece, so
//     its holder still names the run; the holder follows Next when it
//     kills a piece's last cluster, before any collection can free
//     that slot. A split never leaves a live piece dead in full, so
//     only a live run without a dead prefix is split (or a dead one).
package mm

import "fmt"

// Ref names one Object in its heap's ObjectPool.
type Ref int32

// NoRef is the Ref of no object.
const NoRef Ref = -1

// Object is one run of allocated clusters in a simulated heap: Count
// clusters of Size bytes each, back to back from Offset, of which the
// first Killed are dead.
type Object struct {
	// Size of one cluster in bytes. Fixed at allocation.
	Size int64
	// Offset is the object's current byte offset within its owning
	// space or chunk. Maintained by the owning heap; moves on
	// copying/compacting collections.
	Offset int64
	// Count is the number of clusters in the run, 1 for an ordinary
	// object. Only a collector that drops a dead prefix or splits the
	// run changes it.
	Count int32
	// Killed counts the run's dead clusters, all at its front.
	Killed int32
	// Next names the piece holding the run's next clusters once a
	// collector has split the run, or is NoRef.
	Next Ref
	// Dead marks the whole object unreachable; the next GC that visits
	// its space reclaims it. Workload models set it through Kill as
	// data dies.
	Dead bool
	// Weak marks the object reachable only through a weak reference
	// (caches, JIT metadata). An ordinary GC retains it; an
	// "aggressive" collection (§4.7) reclaims it at the cost of a
	// deoptimization penalty on subsequent executions. A weak object
	// is never a run.
	Weak bool
	// Age counts the GC cycles the object has survived, driving
	// promotion decisions. A run's clusters share one age.
	Age uint8
}

func (o *Object) String() string {
	state := "live"
	if o.Dead {
		state = "dead"
	}
	if o.Weak {
		state += ",weak"
	}
	if o.Count > 1 {
		return fmt.Sprintf("run{%d×%dB killed=%d %s age=%d @%d}", o.Count, o.Size, o.Killed, state, o.Age, o.Offset)
	}
	return fmt.Sprintf("obj{%dB %s age=%d @%d}", o.Size, state, o.Age, o.Offset)
}

// Bytes returns the bytes the object spans: Count clusters of Size.
func (o *Object) Bytes() int64 { return o.Size * int64(o.Count) }

// LiveBytes returns the bytes of the object a non-aggressive
// collection keeps: its clusters after the dead prefix.
func (o *Object) LiveBytes() int64 {
	if o.Dead {
		return 0
	}
	return o.Size * int64(o.Count-o.Killed)
}

// DeadBytes returns the bytes of the object a non-aggressive
// collection reclaims.
func (o *Object) DeadBytes() int64 {
	if o.Dead {
		return o.Bytes()
	}
	return o.Size * int64(o.Killed)
}

// Kill marks the oldest n live clusters dead, and the object Dead
// once none is left.
func (o *Object) Kill(n int32) {
	o.Killed += n
	if o.Killed >= o.Count {
		o.Dead = true
	}
}

// DropDead removes the dead prefix of a live object as a collector
// frees it: the object keeps only its live clusters, and Offset moves
// to the first of them. It returns the bytes dropped.
func (o *Object) DropDead() int64 {
	n := o.Size * int64(o.Killed)
	o.Offset += n
	o.Count -= o.Killed
	o.Killed = 0
	return n
}

// Collectible reports whether a collection with the given
// aggressiveness reclaims the object.
func (o *Object) Collectible(aggressive bool) bool {
	if o.Dead {
		return true
	}
	return aggressive && o.Weak
}
