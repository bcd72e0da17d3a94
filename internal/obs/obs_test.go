package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"desiccant/internal/sim"
)

func TestBusStampsAndFansOutInOrder(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	var order []string
	bus.Subscribe(SubscriberFunc(func(ev Event) { order = append(order, "a:"+ev.Name) }))
	bus.Subscribe(SubscriberFunc(func(ev Event) { order = append(order, "b:"+ev.Name) }))

	eng.At(sim.Time(5*sim.Millisecond), "emit", func() {
		bus.Emit(Event{Kind: EvWarning, Name: "x", Time: sim.Time(999)})
	})
	eng.Run()

	want := []string{"a:x", "b:x"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("fan-out order %v, want %v", order, want)
	}
}

func TestBusRestampsEventTime(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	rec := NewRecorder()
	bus.Subscribe(rec)
	eng.At(sim.Time(7*sim.Millisecond), "emit", func() {
		bus.Emit(Event{Kind: EvFreeze, Time: sim.Time(1)}) // stale stamp
	})
	eng.Run()
	if got := rec.Events()[0].Time; got != sim.Time(7*sim.Millisecond) {
		t.Fatalf("event time %v, want the emission instant", got)
	}
}

func TestNilBusEmitIsNoOp(t *testing.T) {
	var bus *Bus
	bus.Emit(Event{Kind: EvWarning}) // must not panic
}

func TestRecorderCountsAndIgnores(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	rec := NewRecorder()
	rec.Ignore(EvEngineFire)
	bus.Subscribe(rec)

	bus.Emit(Event{Kind: EvEngineFire})
	bus.Emit(Event{Kind: EvEngineFire})
	bus.Emit(Event{Kind: EvColdBoot})

	if rec.Len() != 1 {
		t.Fatalf("stored %d events, want 1 (engine fires ignored)", rec.Len())
	}
	if got := rec.CountByKind(EvEngineFire); got != 2 {
		t.Fatalf("ignored kind count %d, want 2", got)
	}
	if got := rec.CountByKind(EvColdBoot); got != 1 {
		t.Fatalf("cold boot count %d, want 1", got)
	}
}

func TestRegistrySnapshotSortedAndTyped(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.count").Add(2)
	reg.Counter("a.count").Inc()
	reg.Gauge("m.gauge").Set(1.5)
	h := reg.Histogram("lat", 1, 10, 100)
	h.Add(5)
	h.Add(50)

	snap := reg.Snapshot()
	var names []string
	for _, mv := range snap {
		names = append(names, mv.Name)
	}
	want := []string{"a.count", "z.count", "m.gauge", "lat.count", "lat.sum", "lat.min", "lat.max", "lat.p50", "lat.p99"}
	if len(names) != len(want) {
		t.Fatalf("snapshot names %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot names %v, want %v", names, want)
		}
	}
	if snap[0].Value != 1 || snap[1].Value != 2 || snap[2].Value != 1.5 {
		t.Fatalf("snapshot values wrong: %+v", snap[:3])
	}
	// Same handle on repeat lookup.
	if reg.Counter("a.count").Value() != 1 {
		t.Fatal("repeat lookup returned a fresh counter")
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestCollectorFoldsEvents(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	reg := NewRegistry()
	bus.Subscribe(NewCollector(reg))

	bus.Emit(Event{Kind: EvInvokeSubmit})
	bus.Emit(Event{Kind: EvInvokeComplete, Dur: 8000}) // 8ms
	bus.Emit(Event{Kind: EvColdBoot, Dur: 300000})
	bus.Emit(Event{Kind: EvEvict, Aux: EvictKeepAlive})
	bus.Emit(Event{Kind: EvEvict, Aux: EvictPressure})
	bus.Emit(Event{Kind: EvReclaimEnd, Bytes: 1000, Aux: 0})
	bus.Emit(Event{Kind: EvReclaimSkipped})
	bus.Emit(Event{Kind: EvGCYoung, Dur: 500})
	bus.Emit(Event{Kind: EvThreshold, Val: 0.6})

	check := func(name string, want float64) {
		t.Helper()
		for _, mv := range reg.Snapshot() {
			if mv.Name == name {
				if mv.Value != want {
					t.Fatalf("%s = %v, want %v", name, mv.Value, want)
				}
				return
			}
		}
		t.Fatalf("metric %s missing from snapshot", name)
	}
	check("invoke.submitted", 1)
	check("invoke.completed", 1)
	check("instance.cold_boots", 1)
	check("instance.evictions.keepalive", 1)
	check("instance.evictions.pressure", 1)
	check("reclaim.count", 1)
	check("reclaim.released_bytes", 1000)
	check("reclaim.skipped", 1)
	check("warnings", 1)
	check("gc.young.count", 1)
	check("manager.threshold", 0.6)
	check("invoke.latency_ms.count", 1)
	check("invoke.latency_ms.sum", 8)
}

func TestSamplerCadenceAndStop(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	c := reg.Counter("ticks")
	var buf bytes.Buffer
	s := NewSampler(eng, reg, 10*sim.Millisecond, &buf)
	s.OnSample = func(*Registry) { c.Inc() }

	eng.RunUntil(sim.Time(25 * sim.Millisecond))
	s.Stop()
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Samples at 0, 10, 20ms, plus the final one Stop takes at 25ms;
	// OnSample ran before each snapshot, so the counter reads 1,2,3,4.
	want := "time_us,metric,value\n0,ticks,1\n10000,ticks,2\n20000,ticks,3\n25000,ticks,4\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestSamplerWithoutWriterAndWriteErrors: with no writer the sampler
// still drives OnSample on its cadence and Flush has nothing to
// report; a failing writer's first error is sticky and comes back
// from Flush.
func TestSamplerWithoutWriterAndWriteErrors(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	n := 0
	s := NewSampler(eng, reg, 10*sim.Millisecond, nil)
	s.OnSample = func(*Registry) { n++ }
	eng.RunUntil(sim.Time(25 * sim.Millisecond))
	s.Stop()
	if n != 4 {
		t.Fatalf("OnSample ran %d times, want 4", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush without a writer: %v", err)
	}

	eng = sim.NewEngine()
	s = NewSampler(eng, reg, 10*sim.Millisecond, failWriter{})
	eng.RunUntil(sim.Time(25 * sim.Millisecond))
	s.Stop()
	if err := s.Flush(); err != errFail {
		t.Fatalf("Flush: err %v, want %v", err, errFail)
	}
}

var errFail = errors.New("write failed")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

// TestRecorderCountOnly pins the constant-memory recorder mode: Len
// and CountByKind report exactly as with storage on; only the stored
// payloads disappear.
func TestRecorderCountOnly(t *testing.T) {
	full := NewRecorder()
	lean := NewRecorder()
	for _, r := range []*Recorder{full, lean} {
		r.Ignore(EvEngineFire)
	}
	lean.CountOnly()
	feed := func(r *Recorder) {
		r.HandleEvent(Event{Kind: EvEngineFire})
		r.HandleEvent(Event{Kind: EvColdBoot})
		r.HandleEvent(Event{Kind: EvFreeze})
		r.HandleEvent(Event{Kind: EvColdBoot})
	}
	feed(full)
	feed(lean)
	if full.Len() != 3 || lean.Len() != 3 {
		t.Fatalf("Len full=%d lean=%d, want 3/3", full.Len(), lean.Len())
	}
	for _, k := range []Kind{EvEngineFire, EvColdBoot, EvFreeze} {
		if full.CountByKind(k) != lean.CountByKind(k) {
			t.Fatalf("kind %v counts diverge: %d vs %d", k, full.CountByKind(k), lean.CountByKind(k))
		}
	}
	if len(full.Events()) != 3 {
		t.Fatalf("full recorder stored %d events, want 3", len(full.Events()))
	}
	if len(lean.Events()) != 0 {
		t.Fatalf("count-only recorder stored %d events, want 0", len(lean.Events()))
	}
}

// TestWriteCSVDeterministicFormat pins the sampler's row format: a
// time_us,metric,value header, then one row per metric in sorted-name
// order, values rendered by FormatValue.
func TestWriteCSVDeterministicFormat(t *testing.T) {
	eng := sim.NewEngine()
	reg := NewRegistry()
	b := reg.Gauge("b")
	a := reg.Gauge("a")
	var buf bytes.Buffer
	s := NewSampler(eng, reg, sim.Second, &buf)
	s.OnSample = func(*Registry) {
		a.Add(1)
		b.Set(0.25)
	}
	eng.RunUntil(sim.Time(sim.Second))
	s.Stop()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "time_us,metric,value\n0,a,1\n0,b,0.25\n1000000,a,2\n1000000,b,0.25\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {0.25, "0.25"}, {1e12, "1000000000000"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v); got != c.want {
			t.Fatalf("FormatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindNamesCoverAllKinds(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestInstrumentEngineEmitsFires(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	rec := NewRecorder()
	bus.Subscribe(rec)
	InstrumentEngine(bus, eng)

	eng.At(sim.Time(1), "one", func() {})
	eng.At(sim.Time(2), "two", func() {})
	eng.Run()

	if got := rec.CountByKind(EvEngineFire); got != 2 {
		t.Fatalf("engine fires %d, want 2", got)
	}
	evs := rec.Events()
	if evs[0].Name != "one" || evs[1].Name != "two" {
		t.Fatalf("fire labels %q,%q", evs[0].Name, evs[1].Name)
	}
	if evs[1].Val != 0 {
		t.Fatalf("pending after last pop = %v, want 0", evs[1].Val)
	}
}
