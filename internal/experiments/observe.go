package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/cluster"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	invtrace "desiccant/internal/obs/trace"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

// ObserveOptions parameterizes the two instrumented single-machine
// replays: one Desiccant cell of the fig9 trace experiment, replayed
// with no warmup and an event bus on the platform. RunObserve attaches
// the metrics stack (event recorder, collector, periodic sampler);
// RunAttrTrace attaches the per-invocation span builder. Each run
// writes whichever of its exports the options request.
type ObserveOptions struct {
	// Scale is the trace scale factor.
	Scale float64
	// Window is the replayed duration (RunAttrTrace drains in-flight
	// invocations afterwards so every span closes).
	Window sim.Duration
	// CacheBytes is the instance cache size.
	CacheBytes int64
	// Synthetic is the replayed trace.
	trace.Synthetic
	// SampleEvery is the metrics sampling cadence (RunObserve).
	SampleEvery sim.Duration

	// Trace, when non-nil, receives the Chrome/Perfetto trace JSON;
	// RunAttrTrace adds one attribution track per invocation.
	Trace io.Writer
	// Metrics, when non-nil, receives the sampled time series as CSV
	// (RunObserve).
	Metrics io.Writer
	// Summary, when non-nil, receives the human-readable summary: the
	// observability digest (RunObserve) or the attribution digest
	// (RunAttrTrace).
	Summary io.Writer
	// Snapshot, when non-nil, receives the final metrics snapshot as
	// metric,value CSV (RunObserve's default machine output).
	Snapshot io.Writer
	// CSV, when non-nil, receives the long-form attribution table
	// (RunAttrTrace's default machine output).
	CSV io.Writer
}

// replayProfile is the trace replay the observe, trace, ext-fleet and
// ext-attr experiments share: 400 functions from seed 11 at 2.2 req/s,
// replayed at scale 15 for 60 s into 2 GiB caches. -quick shrinks it
// to 20 s and 200 functions, and -seed replaces the trace seed. The
// fleets add their Nodes, Policy and Mode.
func replayProfile(opts Options) cluster.Options {
	o := cluster.Options{
		Window:     60 * sim.Second,
		Scale:      15,
		CacheBytes: 2 << 30,
		Synthetic:  trace.Synthetic{Seed: 11, Functions: 400, BaseRate: 2.2},
	}
	if opts.Quick {
		o.Window = 20 * sim.Second
		o.Functions = 200
	}
	if opts.Seed != 0 {
		o.Seed = opts.Seed
	}
	return o
}

// DefaultObserveOptions returns a window big enough to show cold
// boots, freezes, manager activations, and reclamations on one track.
func DefaultObserveOptions() ObserveOptions { return observeOptions(Options{}) }

// observeOptions is the shared profile on one machine, with the trace
// export opts requests.
func observeOptions(opts Options) ObserveOptions {
	p := replayProfile(opts)
	return ObserveOptions{
		Scale:       p.Scale,
		Window:      p.Window,
		CacheBytes:  p.CacheBytes,
		Synthetic:   p.Synthetic,
		SampleEvery: 500 * sim.Millisecond,
		Trace:       opts.Trace,
	}
}

// cell is the observed Desiccant replay; observe attaches the caller's
// subscribers before the manager starts. It fails, naming the field,
// on options that cannot replay.
func (o ObserveOptions) cell(observe core.Observer) (replayCell, error) {
	if err := o.Synthetic.Validate(nil, 0, o.Scale); err != nil {
		return replayCell{}, err
	}
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = o.CacheBytes
	mcfg := core.DefaultConfig()
	return replayCell{
		platform:    pcfg,
		manager:     &mcfg,
		synthetic:   o.Synthetic,
		assignments: o.Synthetic.Assignments(nil, 0),
		window:      o.Window,
		scale:       o.Scale,
		observe:     observe,
	}, nil
}

// newRecorder returns an event recorder for the replay. Engine fires
// are counted (engine.fired, engine.queue_depth) but not stored: one
// instant per simulated event would dwarf the lifecycle tracks the
// trace exists to show. Without a trace export nothing reads the event
// payloads, so only the counts are kept: summaries are unchanged (Len
// and CountByKind report as if storage were on) and memory stays
// constant no matter how many invocations replay.
func newRecorder(keepEvents bool) *obs.Recorder {
	rec := obs.NewRecorder()
	rec.Ignore(obs.EvEngineFire)
	if !keepEvents {
		rec.CountOnly()
	}
	return rec
}

// RunObserve replays one Desiccant trace cell with the observability
// layer attached and writes whichever exports the options request.
// Identical options produce byte-identical exports: every writer sees
// only sim-time-stamped, deterministically ordered data.
func RunObserve(o ObserveOptions) error {
	rec := newRecorder(o.Trace != nil)
	reg := obs.NewRegistry()
	var sampler *obs.Sampler
	cell, err := o.cell(func(platform *faas.Platform, _ *core.Manager) {
		eng, bus := platform.Engine(), platform.Events()
		bus.Subscribe(rec)
		bus.Subscribe(obs.NewCollector(reg))
		obs.InstrumentEngine(bus, eng)

		// Gauges sourced outside the event stream, refreshed per sample.
		memFrac := reg.Gauge("platform.memory_used_frac")
		commits := reg.Gauge("os.page_commits")
		releases := reg.Gauge("os.page_releases")
		swapIns := reg.Gauge("os.page_swap_ins")
		swapOuts := reg.Gauge("os.page_swap_outs")
		sampler = obs.NewSampler(eng, reg, o.SampleEvery, o.Metrics)
		sampler.OnSample = func(*obs.Registry) {
			memFrac.Set(platform.MemoryUsedFraction())
			pc := platform.Machine().PageCounters()
			commits.Set(float64(pc.Commits))
			releases.Set(float64(pc.Releases))
			swapIns.Set(float64(pc.SwapIns))
			swapOuts.Set(float64(pc.SwapOuts))
		}
	})
	if err != nil {
		return err
	}
	platform := cell.run()
	sampler.Stop()

	if o.Trace != nil {
		if err := invtrace.WritePerfetto(o.Trace, rec.Events(), nil); err != nil {
			return err
		}
	}
	if err := sampler.Flush(); err != nil {
		return err
	}
	if o.Summary != nil {
		if err := obs.WriteSummary(o.Summary, rec, reg, platform.Engine().Now()); err != nil {
			return err
		}
	}
	if o.Snapshot != nil {
		if _, err := fmt.Fprintln(o.Snapshot, "metric,value"); err != nil {
			return err
		}
		for _, mv := range reg.Snapshot() {
			if _, err := fmt.Fprintf(o.Snapshot, "%s,%s\n", mv.Name, obs.FormatValue(mv.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunAttrTrace replays one Desiccant machine with causal tracing on
// and writes the requested attribution exports: the long-form CSV,
// the human summary, and the Perfetto trace whose per-invocation
// tracks the summary's exemplar IDs point into. Every export is a
// deterministic function of the options.
func RunAttrTrace(o ObserveOptions) error {
	rec := newRecorder(o.Trace != nil)
	builder := invtrace.NewBuilder()
	cell, err := o.cell(func(p *faas.Platform, _ *core.Manager) {
		p.Events().Subscribe(rec)
		builder.Attach(p.Events())
	})
	if err != nil {
		return err
	}
	eng := cell.run().Engine()
	// Drain the in-flight tail so every span closes.
	drainEnd := sim.Time(o.Window)
	for i := 0; i < 240 && builder.OpenCount() > 0; i++ {
		if _, ok := eng.Next(); !ok {
			break
		}
		drainEnd = drainEnd.Add(sim.Second)
		eng.RunUntil(drainEnd)
	}

	spans := builder.Spans()
	if err := invtrace.CheckExact(spans); err != nil {
		return err
	}
	if o.CSV != nil {
		if err := invtrace.WriteCSV(o.CSV, spans); err != nil {
			return err
		}
	}
	if o.Summary != nil {
		if err := invtrace.WriteSummary(o.Summary, spans); err != nil {
			return err
		}
	}
	if o.Trace != nil {
		if err := invtrace.WritePerfetto(o.Trace, rec.Events(), spans); err != nil {
			return err
		}
	}
	return nil
}
