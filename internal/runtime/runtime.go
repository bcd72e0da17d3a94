// Package runtime defines the contract between FaaS instances and the
// managed language runtimes running inside them. All four heap
// simulators (internal/hotspot and internal/v8heap, which the paper
// evaluates, plus the §7 ports internal/g1gc and internal/pyarena)
// implement Runtime, a 12-method interface: allocation, the object
// pool the allocated Refs index, a forced full collection, live and
// committed sizes, the heap's range, the GC cost and deoptimization
// penalty the executor charges, teardown, the Reclaim method
// Desiccant adds, and the bulk path for runs of same-size clusters:
// Headroom promises the bytes the heap places before its next
// collection, and AllocateRun places that many clusters as one object
// (an mm.Object run). hotspot and v8heap implement the bulk path; the
// §7 ports promise no headroom, so each of their clusters is an object
// of its own. Desiccant talks to instances exclusively through
// Reclaim, so supporting a new language means implementing this
// interface — the paper's §7 portability argument, demonstrated by
// examples/custom-runtime.
//
// Every model embeds HeapCore, which carries the bookkeeping they
// share (object pool, region, counters, GC cost, observer and the
// reclaim epilogue), and registers one constructor, New(Config), that
// derives its heap layout from the memory budget.
package runtime

import (
	"fmt"
	"sort"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
)

// Language identifies the source language of a FaaS function.
type Language string

// Languages evaluated in the paper.
const (
	Java       Language = "java"
	JavaScript Language = "javascript"
)

// AllocOptions qualifies an allocation request.
type AllocOptions struct {
	// Weak marks the object reachable only via weak references
	// (caches, JIT metadata): ordinary GC keeps it, aggressive GC
	// (§4.7) reclaims it and incurs a deoptimization penalty.
	Weak bool
}

// ReclaimReport is the memory profile a runtime returns from Reclaim,
// which the platform extends with CPU accounting and forwards to
// Desiccant (§4.4's workflow, Figure 6).
type ReclaimReport struct {
	// LiveBytes observed in the heap after collection.
	LiveBytes int64
	// ReleasedBytes actually returned to the OS by this reclamation.
	ReleasedBytes int64
	// CPUCost is the runtime-side work (GC + release) performed.
	CPUCost sim.Duration
}

// GCStats counts collection activity over the runtime's lifetime.
type GCStats struct {
	YoungGCs       int64
	FullGCs        int64
	PromotedBytes  int64
	CollectedBytes int64
}

// ErrOutOfMemory is returned when an allocation cannot be satisfied
// even after collection and heap expansion.
var ErrOutOfMemory = fmt.Errorf("runtime: out of memory")

// Runtime is a managed language runtime instance: one heap inside one
// FaaS instance.
type Runtime interface {
	// Allocate creates an object of the given size, triggering
	// collections and heap growth as the runtime's policies dictate,
	// and returns its Ref in Objects. It returns ErrOutOfMemory when
	// the heap limit is exhausted.
	Allocate(size int64, opts AllocOptions) (mm.Ref, error)
	// Headroom promises how many bytes the heap will place, in
	// ordinary objects of at most maxSize bytes each, in any mix of
	// sizes, before its next collection. Allocating b of those bytes
	// (through Allocate or AllocateRun) runs no collection and leaves
	// a promise of at least the old one minus b. 0 promises nothing:
	// the §7 ports, which keep HeapCore's default, always answer 0.
	Headroom(maxSize int64) int64
	// AllocateRun places n clusters of size bytes as one object, a
	// run (mm.Object.Count), and returns its Ref. The heap spends the
	// bytes and touches their pages, and its collections later treat
	// each cluster, exactly as n objects of size bytes allocated one
	// after another would. A chunked heap (v8heap) makes one piece
	// per chunk the run spans, chained through mm.Object.Next. n·size
	// must lie within the current Headroom(size), so no collection
	// runs.
	AllocateRun(size int64, n int32) mm.Ref
	// Objects returns the pool the heap's Refs index. A workload kills
	// an object's clusters through it (Objects().At(r).Kill) and hands
	// its emptied Ref lists to it before Release.
	Objects() *mm.ObjectPool

	// CollectFull forces a full collection followed by the runtime's
	// own resize policy — the System.gc()/global.gc() path used by the
	// eager baseline. aggressive additionally clears weakly-referenced
	// objects.
	CollectFull(aggressive bool)

	// Reclaim is the interface Desiccant adds (§4.4): full collection,
	// resize, then release every free heap page to the OS.
	Reclaim(aggressive bool) ReclaimReport

	// LiveBytes reports bytes held by reachable objects.
	LiveBytes() int64
	// HeapCommitted reports the heap's current committed size — the
	// runtime-internal view of in-heap memory consumption.
	HeapCommitted() int64
	// HeapRange reports the heap's reserved virtual range so the
	// platform can observe its physical footprint with pmap (§4.5.2).
	HeapRange() (va, length int64)

	// DrainGCCost returns the CPU cost of collection work performed
	// since the last drain; the executor folds it into invocation
	// latency.
	DrainGCCost() sim.Duration
	// ConsumeDeoptPenalty returns the pending latency multiplier-delta
	// caused by aggressive collections (0 when none), decaying it.
	ConsumeDeoptPenalty() float64

	// Release tears the heap down when its instance dies: the heap's
	// emptied Ref lists go to its mm.ObjectPool, which resets and goes
	// back to the process-wide store the next heap draws from. Every
	// Ref the heap handed out becomes invalid, and any later use of
	// the runtime panics.
	Release()
}

// SpaceRange locates one heap space (or space fragment, for chunked
// heaps) inside the heap's reserved range. Off is the byte offset from
// HeapRange's base; Len the extent in bytes.
type SpaceRange struct {
	Name string
	Off  int64
	Len  int64
}

// SpaceLayout is an optional interface runtimes implement to expose
// where their internal spaces live. The invariant checker uses it to
// assert structural heap laws — spaces never overlap each other and
// never escape the reservation — that the Runtime interface alone
// cannot express. AppendSpaceLayout appends the ranges to dst, in a
// deterministic order, and returns the extended slice.
type SpaceLayout interface {
	AppendSpaceLayout(dst []SpaceRange) []SpaceRange
}

// GCObserver receives runtime-internal memory events. Runtimes call
// it synchronously from their collection and resize paths; a nil
// observer disables observation at the cost of one branch. The
// interface lives here (rather than in internal/obs) so runtime
// implementations stay free of observability dependencies — obs
// provides the adapter that forwards onto its event bus.
type GCObserver interface {
	// GCPause reports one stop-the-world pause. full distinguishes
	// full/old-generation collections from young-generation ones;
	// collected is the bytes freed.
	GCPause(full bool, pause sim.Duration, collected int64)
	// HeapResized reports a committed-heap change (grow or shrink).
	HeapResized(committedBefore, committedAfter int64)
	// PagesReleased reports resident bytes returned to the OS.
	PagesReleased(bytes int64)
}

// Config carries everything a runtime constructor needs.
type Config struct {
	// AddressSpace of the hosting instance; the runtime maps its heap
	// into it.
	AddressSpace *osmem.AddressSpace
	// MemoryBudget is the instance's memory limit in bytes (e.g.
	// 256 MiB); runtimes derive their heap limits from it the way
	// Lambda's runtime options do.
	MemoryBudget int64
	// Observer, when non-nil, receives GC pause, heap resize, and
	// page-release notifications.
	Observer GCObserver
}

// factories holds the registered constructors.
var factories = map[string]func(Config) (Runtime, error){}

// Register installs a named runtime constructor, which returns an
// error when cfg's budget cannot hold the model's heap layout.
// Registering a duplicate name panics — it is always a wiring bug.
func Register[R Runtime](name string, newRuntime func(cfg Config) (R, error)) {
	if _, dup := factories[name]; dup {
		panic("runtime: duplicate factory " + name)
	}
	factories[name] = func(cfg Config) (Runtime, error) {
		rt, err := newRuntime(cfg)
		if err != nil {
			return nil, err
		}
		return rt, nil
	}
}

// New instantiates the named runtime. It returns an error if no such
// runtime is registered or its constructor rejects cfg.
func New(name string, cfg Config) (Runtime, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown runtime %q", name)
	}
	return f(cfg)
}

// Registered lists the registered factory names, sorted — callers
// print or iterate the list, so its order must not follow the
// registry map's per-run seed.
func Registered() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
