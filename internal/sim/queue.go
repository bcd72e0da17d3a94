package sim

// eventLess is the engine's total firing order: time, then lane (local
// events before deliveries, deliveries by source), then the scheduling
// sequence. It runs on every heap sift, so it must not allocate
// (TestEngineSiftAllocs pins that).
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// eventHeap is the engine's event queue: a binary min-heap ordered by
// eventLess that implements container/heap's interface. Each event
// tracks its heap position so Cancel removes it eagerly.
type eventHeap []*Event

func (q eventHeap) Len() int { return len(q) }

func (q eventHeap) Less(i, j int) bool { return eventLess(q[i], q[j]) }

func (q eventHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
