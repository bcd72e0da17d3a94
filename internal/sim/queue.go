package sim

// slot is one queued event with its firing key kept inline, so a sift
// compares keys without dereferencing the events it passes. A slot is
// 24 bytes: a fleet's engine holds a keep-alive per frozen instance.
type slot struct {
	at Time
	// seq is the engine's scheduling counter, the FIFO tie-breaker
	// among same-instant events.
	seq uint64
	ev  *Event
}

// slotLess is the engine's total firing order: time, then the
// scheduling sequence. It runs on every heap sift, so it must not
// allocate (TestEngineSiftAllocs pins that).
func slotLess(a, b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// arity is the heap's fan-out. Four children share two cache lines,
// and the tree is half as deep as a binary one, so a pop moves half as
// many slots for the same comparisons.
const arity = 4

// eventHeap is the engine's event queue: a 4-ary min-heap ordered by
// slotLess. Each event tracks its slot's position (Event.pos) so
// Cancel removes it eagerly. The sifts move a hole rather than swapping, so each level
// writes one slot.
type eventHeap []slot

// push appends s and sifts it up.
func (q *eventHeap) push(s slot) {
	*q = append(*q, s)
	q.up(len(*q) - 1)
}

// remove takes the slot at i out of the heap and returns its event,
// marked not queued.
func (q *eventHeap) remove(i int) *Event {
	h := *q
	n := len(h) - 1
	e := h[i].ev
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	*q = h
	if i < n {
		h[i] = last
		if !h.down(i) {
			h.up(i)
		}
	}
	e.pos = 0
	return e
}

// up moves the slot at i toward the root until its parent fires first.
func (q eventHeap) up(i int) {
	s := q[i]
	for i > 0 {
		p := (i - 1) / arity
		if !slotLess(&s, &q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.pos = i + 1
		i = p
	}
	q[i] = s
	s.ev.pos = i + 1
}

// down moves the slot at i toward the leaves until both children fire
// after it, and reports whether it moved.
func (q eventHeap) down(i int) bool {
	n := len(q)
	s := q[i]
	start := i
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		c := first
		for k := first + 1; k < first+arity && k < n; k++ {
			if slotLess(&q[k], &q[c]) {
				c = k
			}
		}
		if !slotLess(&q[c], &s) {
			break
		}
		q[i] = q[c]
		q[i].ev.pos = i + 1
		i = c
	}
	q[i] = s
	s.ev.pos = i + 1
	return i > start
}
