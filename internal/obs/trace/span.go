// Package trace folds the observability bus's event stream into
// per-invocation causal spans and decomposes each span's end-to-end
// latency into an exact phase tiling — queue, boot.*, thaw,
// reclaim_stall, gc_pause, exec. "Exact" is a hard invariant, not an
// approximation: for every closed span the phase durations sum to the
// end-to-end latency to the microsecond (CheckExact), because every
// segment is cut from the event payloads the platform already emits
// rather than re-derived from a second model.
//
// Everything here is deterministic by construction. Spans are keyed by
// the platform-assigned invocation ID (arrival order), exporters
// iterate in ID order, and nothing reads wall-clock time — so the
// attribution CSV, summary, and Perfetto tracks are byte-identical
// across -parallel settings (pinned by the experiment differential
// tests).
package trace

import (
	"fmt"
	"sort"

	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// Phase labels one cause of an invocation's latency. The numeric order
// is the exporters' column/report order and the dominance tie-break
// (lower wins), so it is part of the byte-determinism contract.
type Phase uint8

const (
	// PhaseQueue is time spent waiting for admission (memory/CPU) —
	// including the wait after an injected OOM kill requeued the
	// request.
	PhaseQueue Phase = iota
	// PhaseBootCold is a full container + runtime boot.
	PhaseBootCold
	// PhaseBootPrewarm is a stem-cell assignment boot.
	PhaseBootPrewarm
	// PhaseBootRestore is a snapshot restore (SnapStart-style).
	PhaseBootRestore
	// PhaseThaw is resuming a frozen instance that was idle.
	PhaseThaw
	// PhaseReclaimStall is latency charged to memory interference:
	// thawing an instance mid-reclamation (the §4.2 thaw race) plus
	// the page-fault service share of execution wall time — refaults
	// of released or swapped pages under reclamation, first-touch
	// commits in any mode. The vanilla mode's value is therefore the
	// first-touch baseline; the delta against it in the ext-attr mode
	// sweep is the reclamation-caused stall.
	PhaseReclaimStall
	// PhaseGCPause is the GC share of execution interference.
	PhaseGCPause
	// PhaseExec is the function body itself.
	PhaseExec

	numPhases // sentinel; keep last
)

var phaseNames = [numPhases]string{
	PhaseQueue:        "queue",
	PhaseBootCold:     "boot.cold",
	PhaseBootPrewarm:  "boot.prewarm",
	PhaseBootRestore:  "boot.restore",
	PhaseThaw:         "thaw",
	PhaseReclaimStall: "reclaim_stall",
	PhaseGCPause:      "gc_pause",
	PhaseExec:         "exec",
}

// String returns the phase's stable name, used by all exporters.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// NumPhases returns the number of defined phases.
func NumPhases() int { return int(numPhases) }

// Outcome is how a span closed.
type Outcome uint8

const (
	// Completed: the request finished all stages.
	Completed Outcome = iota
	// DroppedOOM: the instance exceeded its budget mid-body.
	DroppedOOM
	// DroppedRequeue: injected OOM kills exhausted the requeue budget.
	DroppedRequeue
	// DroppedBoot: the instance the request booted could not be
	// created.
	DroppedBoot
)

func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case DroppedOOM:
		return "dropped_oom"
	case DroppedRequeue:
		return "dropped_requeue"
	case DroppedBoot:
		return "dropped_boot"
	}
	return "unknown"
}

// Segment is one contiguous slice of a span's timeline, attributed to
// a single phase. A closed span's segments tile [Submit, End] exactly:
// each starts where the previous ended, and the first starts at
// Submit.
type Segment struct {
	Phase Phase
	Start sim.Time
	Dur   sim.Duration
	// Inst is the instance the segment ran on, -1 for platform-side
	// segments (queueing). The Perfetto exporter uses it to draw flow
	// arrows from the invocation track into the instance tracks.
	Inst int
}

// Span is one invocation's causal record.
type Span struct {
	ID       int64
	Function string
	Submit   sim.Time
	End      sim.Time
	Outcome  Outcome
	// Reported is the Dur payload of the closing event — the platform's
	// own end-to-end latency, which CheckExact holds equal to both
	// End-Submit and the phase sum.
	Reported sim.Duration
	// Segments is the chronological phase tiling (see Segment).
	Segments []Segment
	// Phases are the per-phase totals, the sum over Segments.
	Phases [numPhases]sim.Duration

	// Boots, Thaws, OOMKills, GCPauses count lifecycle events folded
	// into the span (GC pauses are attributed via the interference
	// split, so GCPauses is a count, not a duration).
	Boots    int
	Thaws    int
	OOMKills int
	GCPauses int
	// ReclaimThaw records whether any thaw interrupted an in-flight
	// reclamation — the "thaw-during-reclaim" marker the tail summary
	// calls out.
	ReclaimThaw bool
}

// Total returns the span's end-to-end latency.
func (s *Span) Total() sim.Duration { return s.End.Sub(s.Submit) }

// Dominant returns the phase with the largest total, ties to the
// lowest phase index. For a zero-duration span it returns PhaseQueue.
func (s *Span) Dominant() Phase {
	best := PhaseQueue
	for p := Phase(1); p < numPhases; p++ {
		if s.Phases[p] > s.Phases[best] {
			best = p
		}
	}
	return best
}

// pendingExec is an execution segment announced by EvInvokeStart but
// not yet settled: the kill may truncate it, so the three-way split is
// applied only when the next event for the invocation proves the
// execution ran to completion.
type pendingExec struct {
	start     sim.Time
	wall      sim.Duration
	gcWall    sim.Duration
	faultWall sim.Duration
	inst      int
	live      bool
}

// spanState is an open span under construction.
type spanState struct {
	span Span
	// cursor is the last settled instant; the gap to the next
	// boot/thaw/exec is charged to PhaseQueue, which is what makes the
	// tiling exact by construction.
	cursor  sim.Time
	pending pendingExec
}

// Builder subscribes to an obs.Bus and folds the event stream into
// spans. It is single-threaded like the bus; per-machine runs build
// one Builder per bus and merge the span slices afterwards (spans are
// plain values keyed by globally unique IDs, so merging is
// concatenation plus a sort).
type Builder struct {
	open map[int64]*spanState
	done []*Span // completion order
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{open: make(map[int64]*spanState)}
}

// Attach subscribes the builder to the bus.
func (b *Builder) Attach(bus *obs.Bus) {
	bus.Subscribe(b)
}

// HandleEvent folds one event (obs.Subscriber).
func (b *Builder) HandleEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.EvInvokeSubmit:
		if ev.Invo == 0 {
			return
		}
		st := &spanState{cursor: ev.Time}
		st.span.ID = ev.Invo
		st.span.Function = ev.Name
		st.span.Submit = ev.Time
		b.open[ev.Invo] = st

	case obs.EvColdBoot:
		st := b.open[ev.Invo]
		if st == nil {
			return
		}
		st.settleExec()
		start := ev.Time - sim.Time(ev.Dur)
		st.addSegment(PhaseQueue, st.cursor, start.Sub(st.cursor), -1)
		st.addSegment(bootPhase(ev.Aux), start, ev.Dur, ev.Inst)
		st.cursor = ev.Time
		st.span.Boots++

	case obs.EvThaw:
		st := b.open[ev.Invo]
		if st == nil {
			return
		}
		st.settleExec()
		st.addSegment(PhaseQueue, st.cursor, ev.Time.Sub(st.cursor), -1)
		phase := PhaseThaw
		if ev.Aux == obs.ThawReclaiming {
			phase = PhaseReclaimStall
			st.span.ReclaimThaw = true
		}
		st.addSegment(phase, ev.Time, ev.Dur, ev.Inst)
		st.cursor = ev.Time.Add(ev.Dur)
		st.span.Thaws++

	case obs.EvInvokeStart:
		st := b.open[ev.Invo]
		if st == nil {
			return
		}
		st.settleExec()
		st.addSegment(PhaseQueue, st.cursor, ev.Time.Sub(st.cursor), -1)
		st.pending = pendingExec{
			start: ev.Time, wall: ev.Dur,
			gcWall: sim.Duration(ev.Aux),
			// EvInvokeStart repurposes the Bytes payload for the fault
			// wall share, in µs like every duration.
			faultWall: sim.Duration(ev.Bytes),
			inst:      ev.Inst, live: true,
		}

	case obs.EvOOMKill:
		st := b.open[ev.Invo]
		if st == nil {
			return
		}
		// The kill truncates the announced execution: only the ran
		// prefix happened, and the interference split no longer applies
		// (its placement inside the wall is not modeled), so the whole
		// prefix is charged to exec.
		if st.pending.live {
			st.addSegment(PhaseExec, st.pending.start, ev.Dur, st.pending.inst)
			st.cursor = st.pending.start.Add(ev.Dur)
			st.pending = pendingExec{}
		}
		st.span.OOMKills++

	case obs.EvGCYoung, obs.EvGCFull:
		if st := b.open[ev.Invo]; st != nil {
			st.span.GCPauses++
		}

	case obs.EvInvokeComplete:
		b.close(ev, Completed)

	case obs.EvInvokeDrop:
		switch ev.Aux {
		case obs.DropRequeueExhausted:
			b.close(ev, DroppedRequeue)
		case obs.DropBootFailure:
			// The failed boot ran up to the drop: charge it to
			// boot.cold, whichever path it took, not to queue.
			if st := b.open[ev.Invo]; st != nil {
				st.settleExec()
				boot := sim.Duration(ev.Bytes)
				start := ev.Time - sim.Time(boot)
				st.addSegment(PhaseQueue, st.cursor, start.Sub(st.cursor), -1)
				st.addSegment(PhaseBootCold, start, boot, -1)
				st.cursor = ev.Time
				st.span.Boots++
			}
			b.close(ev, DroppedBoot)
		default:
			b.close(ev, DroppedOOM)
		}
	}
}

func (b *Builder) close(ev obs.Event, outcome Outcome) {
	st := b.open[ev.Invo]
	if st == nil {
		return
	}
	st.settleExec()
	st.addSegment(PhaseQueue, st.cursor, ev.Time.Sub(st.cursor), -1)
	st.cursor = ev.Time
	st.span.End = ev.Time
	st.span.Outcome = outcome
	st.span.Reported = ev.Dur
	delete(b.open, ev.Invo)
	sp := st.span
	b.done = append(b.done, &sp)
}

func bootPhase(aux int64) Phase {
	switch aux {
	case obs.BootPrewarm:
		return PhaseBootPrewarm
	case obs.BootRestore:
		return PhaseBootRestore
	}
	return PhaseBootCold
}

// addSegment appends a segment and folds it into the phase totals.
// Zero-duration segments are dropped (they carry no latency and would
// only bloat the tiling); negative durations panic — they mean the
// event stream violated causal order, which is always a model bug.
func (st *spanState) addSegment(p Phase, start sim.Time, d sim.Duration, inst int) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative segment %s start=%d dur=%d invo=%d",
			p, start, d, st.span.ID))
	}
	if d == 0 {
		return
	}
	st.span.Segments = append(st.span.Segments, Segment{Phase: p, Start: start, Dur: d, Inst: inst})
	st.span.Phases[p] += d
}

// settleExec applies the three-way interference split to a pending
// execution that ran to completion: exec, then gc_pause, then
// reclaim_stall tile [start, start+wall] in that order. The shares
// come verbatim from the EvInvokeStart payload, so the tiling is exact
// without re-deriving the platform's rounding.
func (st *spanState) settleExec() {
	if !st.pending.live {
		return
	}
	p := st.pending
	st.pending = pendingExec{}
	pure := p.wall - p.gcWall - p.faultWall
	st.addSegment(PhaseExec, p.start, pure, p.inst)
	st.addSegment(PhaseGCPause, p.start.Add(pure), p.gcWall, p.inst)
	st.addSegment(PhaseReclaimStall, p.start.Add(pure+p.gcWall), p.faultWall, p.inst)
	st.cursor = p.start.Add(p.wall)
}

// OpenCount reports spans still open (submitted, not yet completed or
// dropped).
func (b *Builder) OpenCount() int { return len(b.open) }

// Spans returns the closed spans sorted by invocation ID. The spans
// are the builder's own records; callers must not mutate them.
func (b *Builder) Spans() []*Span {
	out := append([]*Span(nil), b.done...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MergeSpans combines per-machine span slices into one ID-sorted
// slice. IDs are globally unique (each machine's platform gets a
// disjoint InvoBase), so the merge is concatenation plus a sort —
// independent of machine order and shard grouping.
func MergeSpans(groups ...[]*Span) []*Span {
	var out []*Span
	for _, g := range groups {
		out = append(out, g...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CheckExact verifies the attribution invariant over closed spans:
// for every span the segments tile [Submit, End] contiguously, the
// phase totals equal the segment sums, and both equal the platform's
// own reported end-to-end latency. It returns the first violation
// found (in ID order) or nil.
func CheckExact(spans []*Span) error {
	for _, s := range spans {
		cursor := s.Submit
		var phases [numPhases]sim.Duration
		var sum sim.Duration
		for i, seg := range s.Segments {
			if seg.Start != cursor {
				return fmt.Errorf("trace: invo %d segment %d (%s) starts at %d, want %d (gap or overlap)",
					s.ID, i, seg.Phase, seg.Start, cursor)
			}
			if seg.Dur <= 0 {
				return fmt.Errorf("trace: invo %d segment %d (%s) has non-positive duration %d",
					s.ID, i, seg.Phase, seg.Dur)
			}
			cursor = seg.Start.Add(seg.Dur)
			phases[seg.Phase] += seg.Dur
			sum += seg.Dur
		}
		if cursor != s.End {
			return fmt.Errorf("trace: invo %d segments end at %d, span ends at %d",
				s.ID, cursor, s.End)
		}
		if phases != s.Phases {
			return fmt.Errorf("trace: invo %d phase totals diverge from segments", s.ID)
		}
		if sum != s.Total() {
			return fmt.Errorf("trace: invo %d phase sum %d != end-to-end %d",
				s.ID, sum, s.Total())
		}
		if s.Reported != s.Total() {
			return fmt.Errorf("trace: invo %d platform-reported latency %d != span %d",
				s.ID, s.Reported, s.Total())
		}
	}
	return nil
}
