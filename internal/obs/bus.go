package obs

import "desiccant/internal/sim"

// Subscriber receives every event emitted on a Bus. HandleEvent runs
// synchronously on the emitting goroutine; implementations must not
// block or reach for wall-clock time.
type Subscriber interface {
	HandleEvent(Event)
}

// SubscriberFunc adapts a function to the Subscriber interface.
type SubscriberFunc func(Event)

// HandleEvent calls f(ev).
func (f SubscriberFunc) HandleEvent(ev Event) { f(ev) }

// Bus fans events out to subscribers in registration order, stamping
// each event with the engine's current sim time. Every platform owns
// one (faas.Platform.Events). A nil *Bus is a valid no-op emitter, for
// producers that can exist without a platform, such as a chaos
// injector before it is bound.
type Bus struct {
	eng  *sim.Engine
	subs []Subscriber
}

// NewBus returns a bus that stamps events from eng's clock.
func NewBus(eng *sim.Engine) *Bus {
	if eng == nil {
		panic("obs: NewBus needs an engine for timestamps")
	}
	return &Bus{eng: eng}
}

// Subscribe appends s to the fan-out list. Subscribers are notified
// in the order they subscribed — part of the determinism contract.
func (b *Bus) Subscribe(s Subscriber) {
	if s == nil {
		panic("obs: nil subscriber")
	}
	b.subs = append(b.subs, s)
}

// Emit stamps ev with the current sim time and delivers it to every
// subscriber in registration order. Emit on a nil bus is a no-op.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	ev.Time = b.eng.Now()
	for _, s := range b.subs {
		s.HandleEvent(ev)
	}
}

// Now exposes the bus clock for subscribers that need the current sim
// time outside an event delivery.
func (b *Bus) Now() sim.Time { return b.eng.Now() }

// Recorder is a Subscriber that appends every event to a slice, the
// input to the trace exporters. CountOnly switches it to a
// constant-memory mode that keeps the per-kind counts (and Len) but
// drops the event payloads, for runs that never export a trace.
type Recorder struct {
	events    []Event
	stored    int64
	countOnly bool
	counts    [numKinds]int64
	ignore    [numKinds]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Ignore stops the recorder from storing events of the given kinds;
// CountByKind still counts them. Long runs use this to keep
// per-engine-event noise (EvEngineFire) out of exported traces.
func (r *Recorder) Ignore(kinds ...Kind) {
	for _, k := range kinds {
		if int(k) < len(r.ignore) {
			r.ignore[k] = true
		}
	}
}

// CountOnly stops the recorder from storing event payloads. Counts
// and Len keep reporting exactly what they would have with storage
// on, so summaries are byte-identical; only Events() comes back
// empty. Enable it before any events arrive.
func (r *Recorder) CountOnly() { r.countOnly = true }

// HandleEvent appends ev (or, in count-only mode, just accounts for
// it).
func (r *Recorder) HandleEvent(ev Event) {
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
		if r.ignore[ev.Kind] {
			return
		}
	}
	r.stored++
	if r.countOnly {
		return
	}
	r.events = append(r.events, ev)
}

// Events returns the recorded events in emission order. The slice is
// the recorder's own backing store; callers must not mutate it. In
// count-only mode it is always empty.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events — in count-only mode, the
// number that would have been recorded.
func (r *Recorder) Len() int { return int(r.stored) }

// CountByKind returns how many events of kind k were recorded.
func (r *Recorder) CountByKind(k Kind) int64 {
	if int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// InstrumentEngine installs a fire hook on eng that mirrors every
// event firing onto the bus as EvEngineFire. The hook reports the
// engine's queue depth after the pop in Val. Call with the same
// engine the bus stamps from.
func InstrumentEngine(b *Bus, eng *sim.Engine) {
	eng.SetFireHook(func(label string, at sim.Time, pending int) {
		b.Emit(Event{Kind: EvEngineFire, Inst: -1, Name: label, Val: float64(pending)})
	})
}
