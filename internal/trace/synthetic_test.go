package trace

import (
	"math"
	"testing"

	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// arrivalLimit ends a replay that schedules far more arrivals than any
// valid input here can: the submitter panics with it past the limit,
// so a runaway schedule fails the test instead of hanging it.
type arrivalLimit struct{}

// windowSubmitter counts arrivals and records any outside [from, to).
type windowSubmitter struct {
	from, to sim.Time
	limit    int
	n        int
	outside  []sim.Time
}

func (w *windowSubmitter) Submit(_ *workload.Spec, t sim.Time) {
	w.n++
	if w.n > w.limit {
		panic(arrivalLimit{})
	}
	if t < w.from || t >= w.to {
		w.outside = append(w.outside, t)
	}
}

// schedule replays s (with the given Zipf skew) at scale into sub over
// its window and returns the count Schedule reported, or the value it
// panicked with.
func schedule(s Synthetic, zipfSkew, scale float64, sub *windowSubmitter) (n int, panicked any) {
	defer func() { panicked = recover() }()
	return s.Replayer(sub, s.Assignments(nil, zipfSkew)).Schedule(sub.from, sub.to, scale), nil
}

// TestScheduleRejectsDegenerateScales checks that Schedule refuses a
// scale that is not positive and finite. A NaN or infinite scale used
// to turn every mean inter-arrival time into the 1 µs floor, so every
// function arrived once per microsecond: 10⁴ arrivals end the replay
// here long before its 200 million would.
func TestScheduleRejectsDegenerateScales(t *testing.T) {
	s := Synthetic{Seed: 11, Functions: 400, BaseRate: 2.2}
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		sub := &windowSubmitter{to: sim.Time(10 * sim.Second), limit: 10_000}
		_, p := schedule(s, 0, scale, sub)
		switch {
		case p == nil:
			t.Errorf("scale %v: Schedule accepted it", scale)
		case p == arrivalLimit{}:
			t.Errorf("scale %v: Schedule submitted over %d arrivals", scale, sub.limit)
		}
	}
}

// TestTinyScaleStaysInRange replays at a scale so small that the
// scaled inter-arrival times leave the clock's range: the replay must
// schedule nothing rather than wrap them to the 1 µs floor.
func TestTinyScaleStaysInRange(t *testing.T) {
	s := Synthetic{Seed: 11, Functions: 400, BaseRate: 2.2}
	sub := &windowSubmitter{to: sim.Time(10 * sim.Second), limit: 10_000}
	n, p := schedule(s, 0, 1e-300, sub)
	if p != nil || n != 0 {
		t.Fatalf("scale 1e-300: %d arrivals, panic %v", n, p)
	}
}

// FuzzSyntheticReplay drives the replay boundary with arbitrary
// synthesis parameters, Zipf skews and scales. Every input ends one of
// two ways: Validate rejects it, or the replay schedules a finite
// count with every arrival inside its window. Inputs that would
// schedule more than about 10⁵ arrivals, or synthesize a population
// over 10⁴ functions, are skipped to keep one input cheap; a skip is
// not a pass.
func FuzzSyntheticReplay(f *testing.F) {
	f.Add(uint64(11), 400, 2.2, 0.0, 15.0)
	f.Add(uint64(11), 400, 2.2, 0.9, 15.0)
	f.Add(uint64(1), 20, 0.5, 3.0, 1.0)
	f.Add(uint64(5), 2000, 2.2, 400.0, 30.0)
	f.Add(uint64(7), 100, 1e-9, 0.0, 1e-12)
	f.Add(uint64(9), 100, 100.0, 0.0, 50.0)
	f.Add(uint64(3), 0, 2.2, 0.0, 1.0)
	f.Add(uint64(3), 19, 2.2, 0.0, 1.0)
	f.Add(uint64(3), 100, math.NaN(), 0.0, 1.0)
	f.Add(uint64(3), 100, math.Inf(1), 0.0, 1.0)
	f.Add(uint64(3), 100, 2.2, math.NaN(), 1.0)
	f.Add(uint64(3), 100, 2.2, -2.0, 1.0)
	f.Add(uint64(3), 100, 2.2, 0.0, math.NaN())
	f.Add(uint64(3), 100, 2.2, 0.0, math.Inf(1))
	f.Add(uint64(3), 100, 2.2, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, functions int, baseRate, zipfSkew, scale float64) {
		s := Synthetic{Seed: seed, Functions: functions, BaseRate: baseRate}
		if err := s.Validate(nil, zipfSkew, scale); err != nil {
			return
		}
		sub := &windowSubmitter{from: sim.Time(5 * sim.Second), to: sim.Time(15 * sim.Second)}
		expected := baseRate * scale * sub.to.Sub(sub.from).Seconds()
		if functions > 10_000 || !(expected <= 1e5) {
			t.Skipf("%d functions, %g expected arrivals", functions, expected)
		}
		sub.limit = 1_000_000
		n, p := schedule(s, zipfSkew, scale, sub)
		switch {
		case p != nil:
			t.Fatalf("Validate passed but the replay panicked (%v) after %d arrivals", p, sub.n)
		case n != sub.n:
			t.Fatalf("Schedule reported %d arrivals, submitted %d", n, sub.n)
		case len(sub.outside) > 0:
			t.Fatalf("%d arrivals outside [%v, %v), first at %v", len(sub.outside), sub.from, sub.to, sub.outside[0])
		}
	})
}
