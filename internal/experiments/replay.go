package experiments

import (
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
	"desiccant/internal/workload"
)

// replayCell is one single-machine trace replay, the unit every
// single-machine experiment sweeps (fig9/fig10, ext-snapstart,
// ext-prewarm, ext-idle, observe, trace). Each cell owns a private
// engine, platform and replayer, so cells fan out across the pool.
type replayCell struct {
	// platform configures the machine; manager configures Desiccant on
	// it (nil: no manager).
	platform faas.Config
	manager  *core.Config
	// assignments are the matched trace functions. The replayer only
	// reads them, so one synthesis serves a whole sweep.
	assignments []trace.Assignment
	// seed is the trace seed; arrivals draw from seed+1.
	seed uint64
	// warmup at warmupScale precedes the measured window at scale.
	// Platform stats reset at the boundary; a zero warmup replays the
	// window alone and keeps every stat.
	warmup sim.Duration
	window sim.Duration
	scale  float64
	// observe, when non-nil, runs once the platform and the (unstarted)
	// manager exist (see core.NewMachine).
	observe core.Observer
}

// warmupScale is the trace scale of every replay's warmup phase (§5.3).
const warmupScale = 15

// run replays the cell and returns its platform, stopped at the end of
// the measured window with the manager stopped.
func (c replayCell) run() *faas.Platform {
	eng := sim.NewEngine()
	p, mgr := core.NewMachine(eng, c.platform, c.manager, c.observe)

	warmEnd := sim.Time(c.warmup)
	end := warmEnd.Add(c.window)
	rp := trace.NewReplayer(p, c.assignments, c.seed+1)
	if c.warmup > 0 {
		rp.Schedule(0, warmEnd, warmupScale)
	}
	rp.Schedule(warmEnd, end, c.scale)
	if c.warmup > 0 {
		eng.RunUntil(warmEnd)
		p.ResetStats()
	}
	eng.RunUntil(end)
	if mgr != nil {
		mgr.Stop()
	}
	return p
}

// synthesizeTrace generates the seeded synthetic trace, matches its
// functions against specs (nil: the full Table 1 set) and pins their
// total arrival rate at scale 1 to baseRate req/s.
func synthesizeTrace(seed uint64, functions int, specs []*workload.Spec, baseRate float64) []trace.Assignment {
	if specs == nil {
		specs = workload.All()
	}
	as := trace.Match(trace.Generate(trace.GenConfig{Seed: seed, Functions: functions}), specs)
	trace.NormalizeRate(as, baseRate)
	return as
}
