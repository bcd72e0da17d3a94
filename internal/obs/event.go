// Package obs is the simulator's deterministic observability layer: a
// typed event bus stamped with sim-clock time, a snapshotable metrics
// registry, and exporters (CSV time series, human-readable summary;
// the Chrome/Perfetto trace JSON is internal/obs/trace's WritePerfetto).
//
// Everything in this package is deterministic by construction: events
// carry sim timestamps only, subscribers are notified in registration
// order, and exporters iterate sorted keys — so two runs with the same
// seed produce byte-identical artifacts, and traces themselves can be
// golden-tested. The package is single-threaded like the engine it
// observes; a bus must not be shared across worker goroutines (each
// parallel sweep cell builds its own).
package obs

import "desiccant/internal/sim"

// Kind identifies the type of an Event. The numeric order is the
// order summaries report kinds in; it never changes the semantics.
type Kind uint8

const (
	// EvInvokeSubmit fires when a request enters the platform.
	EvInvokeSubmit Kind = iota
	// EvInvokeStart fires when a request begins executing on an
	// instance (after any queueing, cold boot, or thaw). Dur is the
	// modeled execution wall time.
	EvInvokeStart
	// EvInvokeComplete fires when a request finishes. Dur is the
	// end-to-end latency since submission.
	EvInvokeComplete
	// EvColdBoot fires when a new instance is booted for a request.
	// Dur is the boot latency, Bytes the instance memory budget.
	EvColdBoot
	// EvThaw fires when a frozen cached instance is resumed. Dur is
	// the warm-start latency.
	EvThaw
	// EvFreeze fires when an idle instance is frozen into the cache.
	// Bytes is its resident set at freeze time.
	EvFreeze
	// EvEvict fires when a cached instance is evicted. Bytes is the
	// resident set released; Aux is an EvictReason.
	EvEvict
	// EvDestroy fires when an instance is destroyed.
	EvDestroy
	// EvThreshold fires when the manager moves its activation
	// threshold. Val is the new threshold fraction.
	EvThreshold
	// EvActivation fires when a manager check decides to reclaim.
	// Val is the memory-used fraction; Aux is 1 for idle-CPU
	// activations.
	EvActivation
	// EvReclaimBegin fires when reclamation of an instance starts.
	EvReclaimBegin
	// EvReclaimEnd fires when reclamation of an instance finishes.
	// Bytes is released (or swapped) bytes, Dur the modeled wall time.
	EvReclaimEnd
	// EvReclaimSkipped warns that a selected instance thawed (or left
	// the cache) between selection and reclaim start.
	EvReclaimSkipped
	// EvGCYoung is a young-generation (scavenge) pause. Dur is the
	// pause, Bytes the bytes collected.
	EvGCYoung
	// EvGCFull is a full/old-generation collection pause. Dur is the
	// pause, Bytes the bytes collected.
	EvGCFull
	// EvHeapResize fires when a runtime grows or shrinks its
	// committed heap. Aux is committed bytes before, Bytes after.
	EvHeapResize
	// EvPagesReleased fires when a runtime releases pages to the OS.
	// Bytes is the resident bytes released.
	EvPagesReleased
	// EvSwapOut fires when an instance's pages are swapped out.
	// Bytes is the bytes moved to swap.
	EvSwapOut
	// EvQueueDepth samples the platform's pending-request queue.
	// Val is the depth.
	EvQueueDepth
	// EvEngineFire traces one engine event firing. Name is the event
	// label, Val the engine queue depth after the pop.
	EvEngineFire
	// EvWarning is a generic warning; Name describes it.
	EvWarning
	// EvOOMKill fires when a running instance is killed mid-invocation
	// (real or injected OOM). Bytes is the resident set destroyed.
	EvOOMKill
	// EvFault fires when the chaos layer injects a fault. Name is the
	// fault kind ("reclaim.fail", "oom.kill", ...); Bytes and Aux carry
	// fault-specific payloads.
	EvFault
	// EvReclaimRetry fires when the manager schedules a retry after a
	// failed reclamation. Aux is the attempt number, Dur the backoff.
	EvReclaimRetry
	// EvSwapFallback fires when a ModeSwap manager falls back to
	// release-based reclamation because the swap device is full.
	EvSwapFallback
	// EvInvokeDrop fires when a request leaves the platform without
	// completing: a real OOM failure, or requeue exhaustion after
	// injected kills. It is the terminal event for the invocation's
	// span, so Requests == Completions + Drops + open spans always
	// holds (the invariant checker's span-conservation law).
	EvInvokeDrop
	// EvNodePressure is a cluster node's periodic pressure sample:
	// Bytes is resident physical memory, Val the frozen-cache
	// occupancy fraction, Aux the platform queue length. Emitted on
	// the node's local bus at the same instant the sample is shipped
	// to the router, so a trace shows exactly what the placement
	// policies saw.
	EvNodePressure

	numKinds // sentinel; keep last
)

// Eviction reasons carried in Event.Aux for EvEvict.
const (
	EvictPressure  = 0 // cache over capacity
	EvictKeepAlive = 1 // keep-alive timer expired
	EvictMigrate   = 2 // handed off to another machine (cluster migration)
)

var kindNames = [numKinds]string{
	EvInvokeSubmit:   "invoke.submit",
	EvInvokeStart:    "invoke.start",
	EvInvokeComplete: "invoke.complete",
	EvColdBoot:       "instance.cold_boot",
	EvThaw:           "instance.thaw",
	EvFreeze:         "instance.freeze",
	EvEvict:          "instance.evict",
	EvDestroy:        "instance.destroy",
	EvThreshold:      "manager.threshold",
	EvActivation:     "manager.activation",
	EvReclaimBegin:   "reclaim.begin",
	EvReclaimEnd:     "reclaim.end",
	EvReclaimSkipped: "reclaim.skipped",
	EvGCYoung:        "gc.young",
	EvGCFull:         "gc.full",
	EvHeapResize:     "heap.resize",
	EvPagesReleased:  "heap.pages_released",
	EvSwapOut:        "heap.swap_out",
	EvQueueDepth:     "platform.queue_depth",
	EvEngineFire:     "engine.fire",
	EvWarning:        "warning",
	EvOOMKill:        "instance.oom_kill",
	EvFault:          "chaos.fault",
	EvReclaimRetry:   "reclaim.retry",
	EvSwapFallback:   "reclaim.swap_fallback",
	EvInvokeDrop:     "invoke.drop",
	EvNodePressure:   "node.pressure",
}

// String returns the stable dotted name of the kind, used by all
// exporters.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observation. It is a flat value type so emitting one
// costs no per-field allocations; which auxiliary fields are
// meaningful depends on Kind (see the Kind docs).
type Event struct {
	Time  sim.Time     // sim-clock stamp, applied by the bus
	Kind  Kind         // what happened
	Inst  int          // instance ID, -1 when not instance-scoped
	Invo  int64        // invocation ID, 0 when not invocation-scoped
	Name  string       // function name, engine label, or warning text
	Dur   sim.Duration // duration payload (pauses, latencies)
	Bytes int64        // byte payload (resident, released, swapped)
	Aux   int64        // secondary payload (reasons, before-values)
	Val   float64      // scalar payload (fractions, depths)
}

// Boot kinds carried in Event.Aux for EvColdBoot, distinguishing the
// three cold paths for phase attribution (boot.cold / boot.prewarm /
// boot.restore).
const (
	BootCold    = 0 // full container + runtime boot
	BootPrewarm = 1 // stem-cell assignment
	BootRestore = 2 // snapshot restore
)

// ThawReclaiming is Event.Aux for an EvThaw that interrupted an
// in-flight reclamation (§4.2's thaw race, the invocation side): the
// thaw wall time is attributed to the reclaim_stall phase, not thaw.
const ThawReclaiming = 1

// Drop reasons carried in Event.Aux for EvInvokeDrop.
const (
	// DropOOMFailure: the instance exceeded its memory budget during
	// the body; the request fails outright (a real platform's 5xx).
	DropOOMFailure = 0
	// DropRequeueExhausted: injected OOM kills exhausted the requeue bound.
	DropRequeueExhausted = 1
	// DropBootFailure: the instance the request booted could not be
	// created (its runtime cannot fit the budget). Bytes carries the
	// failed boot's duration in µs, which ended at the drop.
	DropBootFailure = 2
)
