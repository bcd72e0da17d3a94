package trace

import (
	"fmt"

	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Submitter accepts trace arrivals. *faas.Platform implements it
// directly; the fleet experiment interposes a router that spreads
// arrivals across machines.
type Submitter interface {
	Submit(spec *workload.Spec, t sim.Time)
}

var _ Submitter = (*faas.Platform)(nil)

// Replayer schedules trace arrivals onto a submitter. A scale factor
// of k divides every inter-arrival time by k (§5.3: "if the scale
// factor is 10, the inter-arrival time for functions is ten times
// smaller than that in the original traces").
type Replayer struct {
	platform    Submitter
	assignments []Assignment
	rng         *sim.RNG
}

// NewReplayer creates a replayer for the given submitter and matched
// functions.
func NewReplayer(p Submitter, as []Assignment, seed uint64) *Replayer {
	return &Replayer{platform: p, assignments: as, rng: sim.NewRNG(seed)}
}

// Schedule enqueues arrivals for every assignment in [from, to) at the
// given scale factor and returns the number of requests scheduled. It
// panics unless scale is positive and finite: a NaN or infinite scale
// would submit every function once per microsecond.
func (r *Replayer) Schedule(from, to sim.Time, scale float64) int {
	if !positiveFinite(scale) {
		panic(fmt.Sprintf("trace: scale factor %v is not positive and finite", scale))
	}
	total := 0
	for i, a := range r.assignments {
		rng := r.rng.Fork(uint64(i)*1000 + uint64(from))
		total += r.scheduleOne(a.Spec, a.Entry, from, to, scale, rng)
	}
	return total
}

// maxMeanIAT caps a function's scaled mean inter-arrival time (about
// 143 years). A tiny scale or a steep Zipf skew can push the float
// past the clock's range, where the conversion would wrap to a
// negative gap, and a gap near the range would wrap t+gap into the
// past; either way the function would arrive once per microsecond
// without end. Under the cap the longest gap drawn (37 means, the
// exponential's tail) stays far from the clock's range.
const maxMeanIAT = sim.Duration(1 << 52)

// scheduleOne generates one function's arrival process.
func (r *Replayer) scheduleOne(spec *workload.Spec, e Entry, from, to sim.Time, scale float64, rng *sim.RNG) int {
	meanIAT := maxMeanIAT
	if iat := e.MeanIATSeconds / scale; iat < maxMeanIAT.Seconds() {
		meanIAT = sim.DurationFromSeconds(iat)
	}
	if meanIAT <= 0 {
		meanIAT = sim.Microsecond
	}
	count := 0
	// Random phase so functions do not synchronize at the window start.
	t := from.Add(sim.Duration(rng.Int63n(int64(meanIAT) + 1)))
	burstLeft := 0
	for t < to {
		r.platform.Submit(spec, t)
		count++
		var gap sim.Duration
		switch e.Pattern {
		case Periodic:
			gap = sim.Duration(rng.Jitter(float64(meanIAT), 0.05))
		case Poisson:
			gap = sim.Duration(rng.ExpFloat64() * float64(meanIAT))
		case Bursty:
			if burstLeft > 0 {
				burstLeft--
				gap = sim.Duration(rng.Jitter(float64(meanIAT)/10, 0.3))
			} else {
				// Start a new burst of 3-8 requests after a long gap;
				// the mean still works out near meanIAT.
				burstLeft = 3 + rng.Intn(6)
				gap = sim.Duration(rng.Jitter(float64(meanIAT)*float64(burstLeft+1)*0.85, 0.2))
			}
		}
		if gap < sim.Microsecond {
			gap = sim.Microsecond
		}
		t = t.Add(gap)
	}
	return count
}
