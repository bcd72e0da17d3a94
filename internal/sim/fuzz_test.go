package sim

import (
	"fmt"
	"testing"
)

// refEntry is one queued event in FuzzEngineOrder's reference model.
type refEntry struct {
	id        int
	at        Time
	lane, seq uint64
}

// orderHarness drives an Engine and a reference model, a plain list
// sorted on demand by (at, lane, seq), through the same operations,
// and fails on the first disagreement.
type orderHarness struct {
	t     *testing.T
	en    *Engine
	seq   uint64
	model []refEntry
	// Events 0..len(owned)-1 are caller-owned; the rest are At, After
	// and Deliver wrappers, at id len(owned)+i in wrapped.
	owned   [4]Event
	wrapped []*Event
	// action is what each event does when it fires: 0 nothing, 1 cancel
	// itself (popped, so a no-op), 2 re-arm itself (owned) or schedule
	// a fresh At (wrapper) arg µs on.
	action, arg map[int]int
	// delivered marks the Deliver events, which no handle can cancel.
	delivered map[int]bool
	// want is the id the model says fires next, wantPending the queue
	// length after its pop; fired counts callbacks run.
	want, wantPending int
	fired             int
}

type ownedHandler struct {
	h  *orderHarness
	id int
}

func (o ownedHandler) Fire()         { o.h.onFire(o.id) }
func (o ownedHandler) Label() string { return o.h.label(o.id) }

func (h *orderHarness) handle(id int) *Event {
	if id < len(h.owned) {
		return &h.owned[id]
	}
	return h.wrapped[id-len(h.owned)]
}

func (h *orderHarness) label(id int) string {
	if id < len(h.owned) {
		return fmt.Sprintf("owned:%d", id)
	}
	return fmt.Sprintf("wrapped:%d", id)
}

// modelRemove drops id from the model, reporting whether it was queued.
func (h *orderHarness) modelRemove(id int) bool {
	for i, e := range h.model {
		if e.id == id {
			h.model = append(h.model[:i], h.model[i+1:]...)
			return true
		}
	}
	return false
}

func (h *orderHarness) modelPush(id int, at Time, lane uint64) {
	h.seq++
	h.model = append(h.model, refEntry{id: id, at: at, lane: lane, seq: h.seq})
}

// wrap schedules a wrapper event at now+d in lane (0: At, else Deliver
// from source lane-1).
func (h *orderHarness) wrap(d Duration, lane uint64) {
	id := len(h.owned) + len(h.wrapped)
	fn := func() { h.onFire(id) }
	at := h.en.Now().Add(d)
	var e *Event
	switch {
	case lane > 0:
		h.en.Deliver(int(lane-1), at, h.label(id), fn)
		e = &Event{} // Deliver returns no handle: a never-queued stand-in
		h.delivered[id] = true
	case d%2 == 0:
		e = h.en.At(at, h.label(id), fn)
	default:
		e = h.en.After(d, h.label(id), fn)
	}
	h.wrapped = append(h.wrapped, e)
	h.modelPush(id, at, lane)
}

// arm schedules owned event id at now+d, moving it if queued.
func (h *orderHarness) arm(id int, d Duration) {
	h.modelRemove(id)
	h.owned[id].Schedule(h.en.Now().Add(d))
	h.modelPush(id, h.en.Now().Add(d), 0)
}

func (h *orderHarness) cancel(id int) {
	h.handle(id).Cancel()
	if !h.delivered[id] {
		h.modelRemove(id)
	}
}

func (h *orderHarness) onFire(id int) {
	h.fired++
	if id != h.want {
		h.t.Fatalf("event %d fired, model says %d", id, h.want)
	}
	if h.handle(id).Pending() {
		h.t.Fatalf("event %d pending while its callback runs", id)
	}
	switch h.action[id] {
	case 1:
		h.handle(id).Cancel() // already popped: must change nothing
	case 2:
		if id < len(h.owned) {
			h.arm(id, Duration(h.arg[id]))
		} else {
			h.wrap(Duration(h.arg[id]), 0)
		}
	}
	h.check()
}

// step pops the model's earliest entry and steps the engine.
func (h *orderHarness) step() {
	if len(h.model) == 0 {
		if h.en.Step() {
			h.t.Fatal("Step fired an event the model does not hold")
		}
		return
	}
	min := 0
	for i := range h.model {
		a, b := h.model[i], h.model[min]
		if a.at < b.at || a.at == b.at && (a.lane < b.lane || a.lane == b.lane && a.seq < b.seq) {
			min = i
		}
	}
	e := h.model[min]
	h.model = append(h.model[:min], h.model[min+1:]...)
	h.want, h.wantPending = e.id, len(h.model)
	before := h.fired
	if !h.en.Step() {
		h.t.Fatalf("Step found no event, model holds %d", h.wantPending+1)
	}
	if h.fired != before+1 {
		h.t.Fatalf("Step ran %d callbacks, want 1", h.fired-before)
	}
	if h.en.Now() != e.at {
		h.t.Fatalf("now = %v after firing event %d, want %v", h.en.Now(), e.id, e.at)
	}
}

// check holds the engine's queue to the model's.
func (h *orderHarness) check() {
	if h.en.Pending() != len(h.model) {
		h.t.Fatalf("Pending = %d, model holds %d", h.en.Pending(), len(h.model))
	}
	for id := range h.owned {
		queued := false
		for _, e := range h.model {
			queued = queued || e.id == id
		}
		if h.owned[id].Pending() != queued {
			h.t.Fatalf("owned event %d: Pending = %v, model %v", id, h.owned[id].Pending(), queued)
		}
	}
}

// FuzzEngineOrder runs random At, After, Deliver, caller-owned
// Schedule (arm and re-arm), Cancel and Step sequences, with callbacks
// that cancel or re-arm their own event, against a reference model
// that sorts by (at, lane, seq). It checks the firing order, Pending,
// the fire hook's label, instant and pending count, and that
// cancelling a fired, never-queued or popped-but-not-yet-run event
// changes nothing.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 2, 1, 6, 0, 0, 2, 1, 2, 6, 0, 0, 6, 0, 0})
	f.Add([]byte{3, 5, 0, 3, 1, 0, 4, 0, 0, 7, 2, 3, 3, 0, 1, 6, 0, 0, 6, 0, 0, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 7, 1, 4, 0, 0, 4, 6, 0, 0, 6, 0, 0, 2, 0, 2, 2, 0, 1, 6, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := &orderHarness{t: t, en: NewEngine(), action: map[int]int{}, arg: map[int]int{},
			delivered: map[int]bool{}}
		for id := range h.owned {
			h.owned[id].Bind(h.en, ownedHandler{h, id})
		}
		h.en.SetFireHook(func(label string, at Time, pending int) {
			if want := h.label(h.want); label != want {
				t.Fatalf("hook label %q, want %q", label, want)
			}
			if pending != h.wantPending {
				t.Fatalf("hook pending %d, want %d", pending, h.wantPending)
			}
			if at != h.en.Now() {
				t.Fatalf("hook at %v, engine now %v", at, h.en.Now())
			}
			h.handle(h.want).Cancel() // popped, not yet run: a no-op
			if h.en.Pending() != pending {
				t.Fatalf("cancelling the popped event moved Pending to %d", h.en.Pending())
			}
		})
		for i := 0; i+2 < len(ops) && i < 3*512; i += 3 {
			op, a, b := ops[i]%8, int(ops[i+1]), int(ops[i+2])
			n := len(h.owned) + len(h.wrapped)
			switch op {
			case 0, 1:
				h.wrap(Duration(a%8), 0)
			case 2:
				h.wrap(Duration(a%8), uint64(b%3)+1)
			case 3:
				h.arm(b%len(h.owned), Duration(a%8))
			case 4:
				h.cancel(b % len(h.owned))
			case 5:
				h.cancel(b % n)
			case 6:
				h.step()
			case 7:
				id := b % n
				h.action[id], h.arg[id] = a%3, a%4
			}
			h.check()
		}
		clear(h.action) // a self re-arming event would never drain
		for len(h.model) > 0 {
			h.step()
		}
		h.step() // an empty queue fires nothing
		h.check()
	})
}
