package mm

import "sync"

// ObjectPool hands out a heap's Objects and takes back the ones its
// collectors drop. Simulated workloads create one Object per allocated
// cluster — millions per experiment — so fresh Objects come from block
// allocations (Object holds no pointers, so a block is a single no-scan
// allocation the garbage collector never traces into), and a collected
// Object goes on a free list that New pops before carving a block. A
// heap in steady state therefore allocates no Go memory per simulated
// allocation.
//
// Pools outlive heaps. A heap takes its pool from a process-wide store
// (NewPool) at birth and hands it back (Release) when its instance
// dies, having freed every object still on its lists, so one heap's
// objects feed the next cold boot on any machine and any worker
// goroutine. A pool belongs to exactly one heap from birth to Release;
// the heap must not touch it afterwards.
//
// Ownership rule: a collector frees an object exactly once, at the
// moment it drops the object from its last list (space, chunk, region
// or arena). Only the heap's own lists may hold a pointer to a freed
// object, and only beyond their length.
//
// Weak objects are never recycled: the workload keeps its weak-cache
// pointer across collections to see the cache die (Dead), so a weak
// Object must stay as the collection left it. Every other object is
// unreachable to the workload by the time it is marked dead, so a
// recycled Object is never observed through a stale pointer. At
// Release the live objects go back too: the dead instance's workload
// state is never run again.
type ObjectPool struct {
	block []Object
	free  []*Object
}

const poolBlock = 512

// pools is the process-wide store of released pools. New resets every
// Object it hands out, so which pool a heap draws changes no output.
var pools = sync.Pool{New: func() any { return new(ObjectPool) }}

// NewPool returns a pool for a newly born heap, recycling one a dead
// heap released when the store has one.
func NewPool() *ObjectPool { return pools.Get().(*ObjectPool) }

// Release hands the pool back to the process-wide store. The heap that
// owned it must already have freed every non-weak object on its lists,
// and must not use the pool again.
func (p *ObjectPool) Release() { pools.Put(p) }

// New returns a zeroed Object with Size and Weak set, equivalent to
// &Object{Size: size, Weak: weak}, reusing a freed Object when one is
// available.
func (p *ObjectPool) New(size int64, weak bool) *Object {
	if n := len(p.free); n > 0 {
		o := p.free[n-1]
		p.free = p.free[:n-1]
		*o = Object{Size: size, Weak: weak}
		return o
	}
	if len(p.block) == 0 {
		p.block = make([]Object, poolBlock)
	}
	o := &p.block[0]
	p.block = p.block[1:]
	o.Size = size
	o.Weak = weak
	return o
}

// Free returns o, which its heap has just dropped from its last list,
// for reuse by New. Weak objects are kept out of the free list.
func (p *ObjectPool) Free(o *Object) {
	if o.Weak {
		return
	}
	p.free = append(p.free, o)
}

// FreeAll frees every object of objs, for a heap emptying a list at
// Release.
func (p *ObjectPool) FreeAll(objs []*Object) {
	for _, o := range objs {
		p.Free(o)
	}
}

// Freed returns the free list, for tests that check the ownership
// rule. The slice is the pool's own.
func (p *ObjectPool) Freed() []*Object { return p.free }
