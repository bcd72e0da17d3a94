package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a unit of scheduled work. The callback runs at the event's
// firing time with the engine positioned at that time.
type Event struct {
	at Time
	// lane orders same-instant events before seq does: 0 for local
	// events (At), 1+src for a delivery from source src (Deliver), so
	// every local event fires before every delivery at that instant and
	// deliveries fire in (source, scheduling order).
	lane   uint64
	seq    uint64 // FIFO tie-breaker within a lane
	fn     func()
	index  int    // heap position; -1 when not queued (fired, cancelled or never pushed)
	Label  string // optional, for tracing/debugging
	engine *Engine
}

// Cancel removes the event from the queue. Cancelling an event that
// already fired (or was already cancelled) is a no-op — including an
// event that has been popped for firing at the current instant but
// whose callback has not run yet: once popped it is no longer queued,
// so Cancel cannot stop it and must not corrupt the queue.
func (e *Event) Cancel() {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&e.engine.q, e.index)
}

// At reports when the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

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
// branch per event and no allocations.
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
	return en.schedule(t, 0, label, fn)
}

// Deliver schedules fn at absolute time t as a message from source
// src, a caller-chosen non-negative index (e.g. a node). A delivery
// fires after every At event at the same instant — including ones
// that earlier deliveries at that instant schedule — and same-instant
// deliveries fire in (src, scheduling order). The key is fixed when
// the message is sent, so the receiving side's order never depends on
// when other sources happened to run. Scheduling into the past panics
// as for At.
func (en *Engine) Deliver(src int, t Time, label string, fn func()) {
	en.schedule(t, uint64(src)+1, label, fn)
}

func (en *Engine) schedule(t Time, lane uint64, label string, fn func()) *Event {
	if t < en.now {
		panic(fmt.Errorf("%w: now=%v target=%v label=%q", ErrPastEvent, en.now, t, label))
	}
	en.seq++
	e := &Event{at: t, lane: lane, seq: en.seq, fn: fn, Label: label, engine: en}
	heap.Push(&en.q, e)
	return e
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
	e := heap.Pop(&en.q).(*Event)
	if e.at < en.now {
		panic(fmt.Sprintf("sim: time went backwards: now=%v event=%v", en.now, e.at))
	}
	en.now = e.at
	en.fired++
	if en.fireHook != nil {
		en.fireHook(e.Label, e.at, len(en.q))
	}
	e.fn()
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
