package mm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// ObjectPool owns every Object of one heap: a flat slab indexed by
// Ref, and a free list of the slots its collectors gave back, which
// New pops before growing the slab. Object holds no pointers, so the
// slab is a single no-scan allocation, and a heap in steady state
// allocates no Go memory per simulated allocation.
//
// Pools outlive heaps. A heap takes its pool from a process-wide store
// (NewPool) at birth and hands it back (Release) when its instance
// dies, so one heap's slab feeds the next cold boot on any machine and
// any worker goroutine. The pool carries the dead heap's emptied Ref
// lists along (PutList, List), and those of its workload state, so
// the next heap's spaces and windows start with capacity instead of
// regrowing it. A pool belongs to exactly one heap from birth to
// Release; nothing may touch it afterwards. The package doc states the
// ownership rules for Refs.
type ObjectPool struct {
	slab  []Object
	free  []Ref
	lists [][]Ref
	// stale counts the lists at the bottom of lists that no List of
	// the current heap has reached; Release drops them, so a pool
	// carries only the lists of the heap that last used it.
	stale int
}

// pools is the process-wide store of released pools. New resets every
// Object it hands out, so which pool a heap draws changes no output.
var pools = sync.Pool{New: func() any { return new(ObjectPool) }}

// NewPool returns an empty pool for a newly born heap, recycling one a
// dead heap released when the store has one.
func NewPool() *ObjectPool { return pools.Get().(*ObjectPool) }

// Release empties the slab and the free list in O(1), whatever the
// number of objects — every Ref the pool handed out becomes invalid —
// and hands the pool back to the process-wide store with the lists
// given to PutList. Its owner must not use it again.
//
// The lists the heap never took are dropped, and the rest are ordered
// by capacity so that List hands out the longest first: the next heap
// takes its long lists (spaces, scratch lists, workload windows) at
// birth and its short ones (chunks) later, so each role gets the
// capacity it had in the previous life, whatever order the dead heap
// gave them back in, and a run of lives settles.
func (p *ObjectPool) Release() {
	p.slab = p.slab[:0]
	p.free = p.free[:0]
	p.lists = slices.Delete(p.lists, 0, p.stale)
	slices.SortFunc(p.lists, func(a, b []Ref) int { return cmp.Compare(cap(a), cap(b)) })
	p.stale = len(p.lists)
	pools.Put(p)
}

// New returns the Ref of a fresh ordinary Object, a run of one cluster
// of size bytes, with Weak set, reusing a freed slot when one is
// available.
func (p *ObjectPool) New(size int64, weak bool) Ref {
	return p.put(Object{Size: size, Count: 1, Next: NoRef, Weak: weak})
}

// NewRun returns the Ref of a fresh run of n clusters of size bytes.
func (p *ObjectPool) NewRun(size int64, n int32) Ref {
	return p.put(Object{Size: size, Count: n, Next: NoRef})
}

// Split keeps the first k clusters of run r in r and moves the rest
// into a new piece, chained right after r with r's size, age and
// verdict. It returns the new piece, or NoRef when r has no more than
// k clusters. r may have a dead prefix only if it is dead in full: a
// live piece the workload names must never become dead in full by a
// collector's hand, or a collection would free a slot its holder still
// names. The slab may move, so pointers into it are stale afterwards.
func (p *ObjectPool) Split(r Ref, k int32) Ref {
	o := &p.slab[r]
	if o.Count <= k {
		return NoRef
	}
	if o.Killed != 0 && !o.Dead {
		panic(fmt.Sprintf("mm: Split of %v with a dead prefix", o))
	}
	rest := Object{Size: o.Size, Offset: o.Offset + int64(k)*o.Size, Count: o.Count - k,
		Next: o.Next, Dead: o.Dead, Age: o.Age}
	o.Count = k
	if o.Dead {
		o.Killed, rest.Killed = k, rest.Count
	}
	n := p.put(rest)
	p.slab[r].Next = n
	return n
}

func (p *ObjectPool) put(o Object) Ref {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		p.slab[r] = o
		return r
	}
	p.slab = append(p.slab, o)
	return Ref(len(p.slab) - 1)
}

// At returns the Object r names. The pointer is valid only until the
// pool's next New.
func (p *ObjectPool) At(r Ref) *Object { return &p.slab[r] }

// Free returns r, which its heap has just dropped from its last list,
// for reuse by New. Weak slots are kept out of the free list: their
// holder still reads the collection's verdict there, and gives the
// slot back with FreeWeak.
func (p *ObjectPool) Free(r Ref) {
	if p.slab[r].Weak {
		return
	}
	p.free = append(p.free, r)
}

// FreeWeak returns the slot of weak object r, which a collection has
// killed and dropped from every list, once its holder has read that
// it is Dead and let go of r. It panics on a live or non-weak r.
func (p *ObjectPool) FreeWeak(r Ref) {
	if o := &p.slab[r]; !o.Weak || !o.Dead {
		panic(fmt.Sprintf("mm: FreeWeak of %v", o))
	}
	p.free = append(p.free, r)
}

// LiveBytes sums the bytes of refs that survive a non-aggressive
// collection.
func (p *ObjectPool) LiveBytes(refs []Ref) int64 {
	var n int64
	for _, r := range refs {
		n += p.slab[r].LiveBytes()
	}
	return n
}

// DeadBytes sums the bytes of refs a non-aggressive collection would
// reclaim.
func (p *ObjectPool) DeadBytes(refs []Ref) int64 {
	var n int64
	for _, r := range refs {
		n += p.slab[r].DeadBytes()
	}
	return n
}

// List returns an empty Ref list, the longest a released heap or
// workload state left in the pool when there is one.
func (p *ObjectPool) List() []Ref {
	n := len(p.lists)
	if n == 0 {
		return nil
	}
	l := p.lists[n-1]
	p.lists[n-1] = nil
	p.lists = p.lists[:n-1]
	p.stale = min(p.stale, n-1)
	return l
}

// PutList keeps l's storage for a later List, typically by the next
// heap to draw the pool. The caller must not use l afterwards.
func (p *ObjectPool) PutList(l []Ref) {
	if cap(l) > 0 {
		p.lists = append(p.lists, l[:0])
	}
}

// Len returns the number of slab slots in use, freed ones included,
// for tests that check a reborn heap starts empty.
func (p *ObjectPool) Len() int { return len(p.slab) }

// Freed returns the free list, for tests that check the ownership
// rule. The slice is the pool's own.
func (p *ObjectPool) Freed() []Ref { return p.free }
