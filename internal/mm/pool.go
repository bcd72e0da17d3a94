package mm

// ObjectPool hands out a heap's Objects and takes back the ones its
// collectors drop. Simulated workloads create one Object per allocated
// cluster — millions per experiment — so fresh Objects come from block
// allocations (Object holds no pointers, so a block is a single no-scan
// allocation the garbage collector never traces into), and a collected
// Object goes on a free list that New pops before carving a block. A
// heap in steady state therefore allocates no Go memory per simulated
// allocation. Each simulated heap owns its pool.
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
// recycled Object is never observed through a stale pointer.
type ObjectPool struct {
	block []Object
	free  []*Object
}

const poolBlock = 512

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

// Freed returns the free list, for tests that check the ownership
// rule. The slice is the pool's own.
func (p *ObjectPool) Freed() []*Object { return p.free }
