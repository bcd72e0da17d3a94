package experiments

import (
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
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
	// assignments are synthetic's matched functions, synthesized once
	// per sweep; synthetic also seeds the arrivals.
	synthetic   trace.Synthetic
	assignments []trace.Assignment
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
func (c replayCell) run() (*faas.Platform, error) {
	eng := sim.NewEngine()
	p, mgr, err := core.NewMachine(eng, c.platform, c.manager, c.observe)
	if err != nil {
		return nil, err
	}

	warmEnd := sim.Time(c.warmup)
	end := warmEnd.Add(c.window)
	rp := c.synthetic.Replayer(p, c.assignments)
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
	return p, nil
}
