package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(3 * Second)
	if t1.Sub(t0) != 3*Second {
		t.Fatalf("Sub: got %v, want 3s", t1.Sub(t0))
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds: got %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Fatalf("Millis: got %v, want 2.5", got)
	}
}

func TestDurationConversions(t *testing.T) {
	if got := DurationFromSeconds(0.25); got != 250*Millisecond {
		t.Fatalf("DurationFromSeconds: got %v", got)
	}
	if got := DurationFromMillis(1.5); got != 1500*Microsecond {
		t.Fatalf("DurationFromMillis: got %v", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{5 * Millisecond, "5.000ms"},
		{42 * Microsecond, "42µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%d): got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	en := NewEngine()
	var order []int
	en.At(10, "b", func() { order = append(order, 2) })
	en.At(5, "a", func() { order = append(order, 1) })
	en.At(10, "c", func() { order = append(order, 3) })
	en.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order: got %v, want [1 2 3]", order)
	}
	if en.Now() != 10 {
		t.Fatalf("Now: got %v, want 10", en.Now())
	}
	if en.Fired() != 3 {
		t.Fatalf("Fired: got %d, want 3", en.Fired())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	en := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		en.At(7, "x", func() { order = append(order, i) })
	}
	en.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	en := NewEngine()
	ran := false
	e := en.At(5, "victim", func() { ran = true })
	e.Cancel()
	en.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	// Double cancel must be harmless.
	e.Cancel()
}

func TestEngineCancelFromCallback(t *testing.T) {
	en := NewEngine()
	ran := false
	var victim *Event
	en.At(1, "canceller", func() { victim.Cancel() })
	victim = en.At(2, "victim", func() { ran = true })
	en.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestEngineScheduleInsideCallback(t *testing.T) {
	en := NewEngine()
	var hits []Time
	en.At(1, "outer", func() {
		en.After(4, "inner", func() { hits = append(hits, en.Now()) })
	})
	en.Run()
	if len(hits) != 1 || hits[0] != 5 {
		t.Fatalf("nested scheduling: got %v, want [5]", hits)
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	en := NewEngine()
	en.At(10, "later", func() {})
	en.Run()
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, ErrPastEvent) {
			t.Fatalf("panic = %v, want ErrPastEvent", err)
		}
	}()
	en.At(3, "past", func() {})
}

func TestEngineRunUntil(t *testing.T) {
	en := NewEngine()
	var fired []Time
	for _, at := range []Time{3, 7, 12} {
		at := at
		en.At(at, "e", func() { fired = append(fired, at) })
	}
	en.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("fired: got %v, want two events", fired)
	}
	if en.Now() != 10 {
		t.Fatalf("Now after RunUntil: got %v, want 10", en.Now())
	}
	if en.Pending() != 1 {
		t.Fatalf("Pending: got %d, want 1", en.Pending())
	}
	en.Run()
	if en.Now() != 12 {
		t.Fatalf("Now after Run: got %v, want 12", en.Now())
	}
}

func TestEngineRunFor(t *testing.T) {
	en := NewEngine()
	en.At(100, "never", func() {})
	en.RunFor(50)
	if en.Now() != 50 {
		t.Fatalf("RunFor: got %v, want 50", en.Now())
	}
}

func TestEngineEmptyStep(t *testing.T) {
	en := NewEngine()
	if en.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Fork(uint64(i)).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look correlated: %d matches", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("sibling forks produced identical first values")
	}
	// Forking must not perturb the parent sequence.
	p1 := NewRNG(7)
	if parent.Uint64() != p1.Uint64() {
		t.Fatal("forking advanced the parent state")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestRNGFloat64Property(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	inUnit := func(seed uint64) bool {
		v := NewRNG(seed).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(inUnit, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDistributionMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean drifted: %v", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("normal variance drifted: %v", variance)
	}

	var esum float64
	for i := 0; i < n; i++ {
		esum += r.ExpFloat64()
	}
	if m := esum / n; m < 0.98 || m > 1.02 {
		t.Fatalf("exponential mean drifted: %v", m)
	}
}

func TestRNGJitter(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter out of band: %v", v)
		}
	}
	if v := r.Jitter(100, 0); v != 100 {
		t.Fatalf("zero jitter changed value: %v", v)
	}
}

func TestRNGPareto(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.1, 1.0, 1000.0)
		if v < 1.0-1e-9 || v > 1000.0+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestWorkDuration(t *testing.T) {
	if got := WorkDuration(10*Millisecond, 0.25); got != 40*Millisecond {
		t.Fatalf("WorkDuration: got %v, want 40ms", got)
	}
	if got := WorkDuration(10*Millisecond, 1); got != 10*Millisecond {
		t.Fatalf("WorkDuration full share: got %v", got)
	}
}

// TestWorkDurationOverflowPanics pins the overflow guard: a share so
// small that the wall time leaves int64 must panic with WorkDuration's
// own message, not wrap into a time in the past.
func TestWorkDurationOverflowPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "WorkDuration") {
			t.Fatalf("panic = %q, want WorkDuration's overflow message", msg)
		}
	}()
	WorkDuration(10*Millisecond, 1e-15)
}

// asTime converts a Duration offset from zero into a Time, a
// convenience for tests only.
func (d Duration) asTime() Time { return Time(d) }

// TestEngineLongIdleJump pins exact clocks across long empty stretches
// of virtual time: events separated by hours fire in order at their
// own instants.
func TestEngineLongIdleJump(t *testing.T) {
	en := NewEngine()
	var got []Time
	times := []Time{3, 511, 512, Time(Second), Time(2 * Hour), Time(2*Hour) + 1, Time(48 * Hour)}
	for _, at := range times {
		en.At(at, "t", func() { got = append(got, en.Now()) })
	}
	en.Run()
	if len(got) != len(times) {
		t.Fatalf("fired %d of %d events", len(got), len(times))
	}
	for i, at := range times {
		if got[i] != at {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], at)
		}
	}
}

// TestCancelDuringDrain: at a single instant, an earlier callback
// cancels later events that are already inside the same drain. The
// cancelled events must not fire, the queue must not panic, and
// Pending must account for them, with the victim in every same-instant
// position (immediately next, and further down the queue).
func TestCancelDuringDrain(t *testing.T) {
	en := NewEngine()
	var fired []string
	const T = 1000
	var victims [3]*Event
	en.At(T, "killer", func() {
		for _, v := range victims {
			v.Cancel()
			v.Cancel() // double-cancel is a no-op
		}
	})
	victims[0] = en.At(T, "victim0", func() { fired = append(fired, "victim0") })
	en.At(T, "survivor", func() { fired = append(fired, "survivor") })
	victims[1] = en.At(T, "victim1", func() { fired = append(fired, "victim1") })
	victims[2] = en.At(T+5, "victim2", func() { fired = append(fired, "victim2") })
	en.At(T+5, "later", func() { fired = append(fired, "later") })
	en.Run()
	want := "survivor,later"
	if got := strings.Join(fired, ","); got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if en.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", en.Pending())
	}
	for _, v := range victims {
		if v.Pending() {
			t.Fatalf("cancelled event still pending")
		}
	}
}

// TestCancelSelfAndRescheduleDuringDrain covers the popped-event edges:
// a callback cancelling its own (already-popped) event must be a no-op,
// and scheduling at the current instant from inside a drain must fire
// within the same drain, in seq order.
func TestCancelSelfAndRescheduleDuringDrain(t *testing.T) {
	en := NewEngine()
	var fired []string
	var self *Event
	self = en.At(10, "self", func() {
		self.Cancel() // popped already: must be a no-op, no panic
		fired = append(fired, "self")
		en.At(10, "tail", func() { fired = append(fired, "tail") })
	})
	en.At(10, "mid", func() { fired = append(fired, "mid") })
	en.Run()
	want := "self,mid,tail"
	if got := strings.Join(fired, ","); got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if self.Pending() {
		t.Fatal("fired event reports Pending")
	}
}

// TestEnginePendingDropsOnCancel pins the live count: cancelling
// far-future events drops Pending immediately.
func TestEnginePendingDropsOnCancel(t *testing.T) {
	en := NewEngine()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, en.At(Time(Duration(i)*Hour), "h", func() {}))
	}
	if en.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", en.Pending())
	}
	for i := 0; i < 100; i += 2 {
		evs[i].Cancel()
	}
	if en.Pending() != 50 {
		t.Fatalf("pending = %d after cancels, want 50", en.Pending())
	}
	en.Run()
	if en.Fired() != 50 || en.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d, want 50/0", en.Fired(), en.Pending())
	}
}

// nop is a Handler that does nothing, for caller-owned test events.
type nop struct{}

func (nop) Fire()         {}
func (nop) Label() string { return "nop" }

// TestEngineSiftAllocs pins schedule + Step on a queue holding 64
// events: a caller-owned event allocates nothing, and the At wrapper
// exactly one, the event with its callback and label. Pushing and popping sift
// through the heap, and no comparison on the way may allocate.
func TestEngineSiftAllocs(t *testing.T) {
	en := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		en.At(Time(Duration(i+1)*Hour), "queued", fn)
	}
	t.Run("caller-owned", func(t *testing.T) {
		var e Event
		e.Bind(en, nop{})
		got := testing.AllocsPerRun(100, func() {
			e.Schedule(en.Now())
			en.Step()
		})
		if got != 0 {
			t.Fatalf("Schedule + Step on a 64-event queue allocates %v/op, want 0", got)
		}
	})
	t.Run("wrapper", func(t *testing.T) {
		got := testing.AllocsPerRun(100, func() {
			en.At(en.Now(), "sift", fn)
			en.Step()
		})
		if got != 1 {
			t.Fatalf("At + Step on a 64-event queue allocates %v/op, want 1 (the event)", got)
		}
	})
	if en.Pending() != 64 {
		t.Fatalf("pending = %d, want 64", en.Pending())
	}
}

// labelCounter is a Handler that counts the labels it builds.
type labelCounter struct {
	prefix, name string
	built        int
}

func (*labelCounter) Fire() {}
func (l *labelCounter) Label() string {
	l.built++
	return l.prefix + l.name
}

// TestLabelBuiltOnlyForHook pins that a caller-owned event's label is
// its handler's, built when a fire hook sees it fire and never by an
// unobserved engine.
func TestLabelBuiltOnlyForHook(t *testing.T) {
	en := NewEngine()
	h := &labelCounter{prefix: "exec:", name: "fft"}
	var e Event
	e.Bind(en, h)
	e.Schedule(1)
	en.Step()
	if h.built != 0 {
		t.Fatalf("an unobserved engine built %d labels", h.built)
	}
	var seen []string
	en.SetFireHook(func(label string, _ Time, _ int) { seen = append(seen, label) })
	e.Schedule(2)
	en.Step()
	h.prefix, h.name = "keepalive", ""
	e.Schedule(3)
	en.Step()
	if strings.Join(seen, ",") != "exec:fft,keepalive" || h.built != 2 {
		t.Fatalf("hook saw %q after %d builds", seen, h.built)
	}
}

// TestCallerOwnedReArm covers a caller-owned event's life: a zero
// Event is not pending, Schedule on a pending event moves it (it fires
// once, at the new time, behind the events already at that instant),
// a handler may re-arm its own event, and Bind of a pending event
// panics.
func TestCallerOwnedReArm(t *testing.T) {
	en := NewEngine()
	var e Event
	if e.Pending() {
		t.Fatal("zero Event is pending")
	}
	e.Cancel() // never scheduled: a no-op
	var fired []Time
	var order []string
	var h handlerFunc
	h = func() {
		fired = append(fired, en.Now())
		order = append(order, "e")
		if len(fired) == 2 {
			e.Schedule(en.Now().Add(5))
		}
	}
	e.Bind(en, h)
	en.At(20, "other", func() { order = append(order, "other") })
	e.Schedule(10)
	e.Schedule(20) // moved: now behind "other" at t=20
	if en.Pending() != 2 {
		t.Fatalf("pending = %d after a move, want 2", en.Pending())
	}
	en.At(20, "probe", func() { order = append(order, "probe") })
	en.Run()
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("moved event fired at %v, want [20]", fired)
	}
	if got := strings.Join(order, ","); got != "other,e,probe" {
		t.Fatalf("order at t=20 %q, want other,e,probe", got)
	}
	e.Schedule(30)
	en.Run()
	want := []Time{20, 30, 35}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	e.Schedule(40)
	defer func() {
		if recover() == nil {
			t.Fatal("Bind of a pending event did not panic")
		}
	}()
	e.Bind(en, h)
}

// handlerFunc adapts a function to Handler in tests.
type handlerFunc func()

func (f handlerFunc) Fire()         { f() }
func (f handlerFunc) Label() string { return "handler" }
