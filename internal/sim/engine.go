package sim

import (
	"errors"
	"fmt"
)

// Event is a unit of scheduled work. The callback runs at the event's
// firing time with the engine positioned at that time.
//
// An event comes one of two ways. At, After and Deliver allocate a
// fresh one per call, for cold paths. A caller-owned event is a field
// of its owner, used as a kernel timer is: Bind attaches it to an
// engine and a Handler once, Schedule arms it, Cancel disarms it, and
// once it has fired or been cancelled Schedule re-arms it in place.
// Arming a caller-owned event allocates nothing.
type Event struct {
	at Time
	// pos is 1 + the event's slot position in the queue, 0 when the
	// event is not queued (fired, cancelled or never scheduled), so a
	// zero Event is not pending.
	pos    int
	h      Handler
	engine *Engine
}

// Handler is what a caller-owned event runs when it fires, and what
// names it. The owner embedding the event implements it, so binding
// allocates no closure, and the event carries no label of its own.
type Handler interface {
	// Fire runs the event.
	Fire()
	// Label names the pending event for a fire hook: a constant prefix
	// and the name of what the event acts on. The engine calls it only
	// when a hook is attached, so an unobserved run builds no string.
	Label() string
}

// funcEvent is the event At, After and Deliver allocate: the event,
// its callback and its label in one allocation.
type funcEvent struct {
	Event
	fn    func()
	label string
}

func (f *funcEvent) Fire()         { f.fn() }
func (f *funcEvent) Label() string { return f.label }

// newFuncEvent returns a wrapper event of en running fn.
func (en *Engine) newFuncEvent(label string, fn func()) *Event {
	f := &funcEvent{fn: fn, label: label}
	f.Event.h, f.Event.engine = f, en
	return &f.Event
}

// Bind makes e a caller-owned event of en that calls h.Fire each time
// it fires. Binding a queued event would corrupt the queue, so it
// panics.
func (e *Event) Bind(en *Engine, h Handler) {
	if e.pos != 0 {
		panic("sim: Bind on a pending event")
	}
	e.engine, e.h = en, h
}

// Schedule arms a bound event to fire at absolute time t. A pending
// event is moved, as if cancelled and scheduled anew: it takes a fresh
// place among the events at t. Scheduling into the past panics as for
// At.
func (e *Event) Schedule(t Time) {
	if e.engine == nil {
		panic("sim: Schedule on an unbound event")
	}
	e.Cancel()
	e.engine.schedule(e, t, 0)
}

// ScheduleAfter arms a bound event to fire d after the current time.
func (e *Event) ScheduleAfter(d Duration) { e.Schedule(e.engine.now.Add(d)) }

// Cancel removes the event from the queue. Cancelling an event that
// already fired (or was already cancelled, or never scheduled) is a
// no-op — including an event that has been popped for firing at the
// current instant but whose callback has not run yet: once popped it
// is no longer queued, so Cancel cannot stop it and must not corrupt
// the queue.
func (e *Event) Cancel() {
	if e == nil || e.pos == 0 {
		return
	}
	e.engine.q.remove(e.pos - 1)
}

// At reports when the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.pos != 0 }

// Label returns the event's label, from its handler. A caller-owned
// event's may allocate, so the engine calls it only for a fire hook.
func (e *Event) Label() string { return e.h.Label() }

// Engine is a single-threaded discrete-event simulator over one binary
// heap. It is not safe for concurrent use; all model code runs inside
// event callbacks on the caller's goroutine. A fleet of machines runs
// on one Engine, with messages between them filed through Deliver.
type Engine struct {
	now      Time
	q        eventHeap
	seq      uint64
	fired    uint64
	halted   bool
	fireHook FireFunc
}

// FireFunc observes one event firing: its label, the instant it fires,
// and the number of events still queued after it was popped. Hooks run
// before the event's callback so the observation carries the pre-state.
type FireFunc func(label string, at Time, pending int)

// SetFireHook installs fn as the engine's fire observer (nil clears
// it). The engine deliberately takes a plain function rather than an
// interface so sim stays dependency-free; richer fan-out lives in
// higher layers (internal/obs). A nil hook costs one predictable
// branch per event and no allocations: labels are built only for a
// hook.
func (en *Engine) SetFireHook(fn FireFunc) { en.fireHook = fn }

// NewEngine returns an engine positioned at time zero with an empty
// event queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (en *Engine) Now() Time { return en.now }

// Fired returns the number of events executed so far, a useful progress
// and determinism check in tests.
func (en *Engine) Fired() uint64 { return en.fired }

// Pending returns the number of queued events.
func (en *Engine) Pending() int { return len(en.q) }

// Next reports the earliest queued event's firing time.
func (en *Engine) Next() (Time, bool) {
	if len(en.q) == 0 {
		return 0, false
	}
	return en.q[0].at, true
}

// ErrPastEvent is returned (via panic-free API) when scheduling into
// the past, which would corrupt causality in the simulation.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time t. Scheduling at the current
// instant is allowed; the event runs after the current callback
// returns. Scheduling in the past panics: it is always a model bug.
func (en *Engine) At(t Time, label string, fn func()) *Event {
	e := en.newFuncEvent(label, fn)
	en.schedule(e, t, 0)
	return e
}

// Deliver schedules fn at absolute time t as a message from source
// src, a caller-chosen non-negative index (e.g. a node). A delivery
// fires after every local event (At, Schedule) at the same instant —
// including ones that earlier deliveries at that instant schedule —
// and same-instant deliveries fire in (src, scheduling order). The key
// is fixed when the message is sent, so the receiving side's order
// never depends on when other sources happened to run. Scheduling into
// the past panics as for At.
func (en *Engine) Deliver(src int, t Time, label string, fn func()) {
	if src < 0 || src >= maxSources {
		panic(fmt.Sprintf("sim: Deliver source %d outside [0, %d)", src, maxSources))
	}
	en.schedule(en.newFuncEvent(label, fn), t, uint64(src)+1)
}

// schedule queues e at t in the given lane with the next sequence
// number.
func (en *Engine) schedule(e *Event, t Time, lane uint64) {
	if t < en.now {
		panic(fmt.Errorf("%w: now=%v target=%v label=%q", ErrPastEvent, en.now, t, e.Label()))
	}
	if en.seq++; en.seq > maxSeq {
		panic("sim: event sequence numbers exhausted")
	}
	e.at = t
	en.q.push(slot{at: t, key: lane<<seqBits | en.seq, ev: e})
}

// After schedules fn to run d after the current time. Negative d panics.
func (en *Engine) After(d Duration, label string, fn func()) *Event {
	return en.At(en.now.Add(d), label, fn)
}

// Halt stops the run loop after the current event completes. Further
// Run/RunUntil calls resume from the halted position.
func (en *Engine) Halt() { en.halted = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (en *Engine) Step() bool {
	if len(en.q) == 0 {
		return false
	}
	e := en.q.remove(0)
	if e.at < en.now {
		panic(fmt.Sprintf("sim: time went backwards: now=%v event=%v", en.now, e.at))
	}
	en.now = e.at
	en.fired++
	if en.fireHook != nil {
		en.fireHook(e.Label(), e.at, len(en.q))
	}
	e.h.Fire()
	return true
}

// Run executes events until the queue drains or Halt is called.
func (en *Engine) Run() {
	en.halted = false
	for !en.halted && en.Step() {
	}
}

// RunUntil executes events with firing time <= deadline, then advances
// the clock to exactly deadline. Events scheduled past the deadline
// remain queued.
func (en *Engine) RunUntil(deadline Time) {
	en.halted = false
	for !en.halted {
		next, ok := en.Next()
		if !ok || next > deadline {
			break
		}
		en.Step()
	}
	if en.now < deadline {
		en.now = deadline
	}
}

// RunFor runs for a span of virtual time starting at the current
// instant (see RunUntil).
func (en *Engine) RunFor(d Duration) { en.RunUntil(en.now.Add(d)) }
