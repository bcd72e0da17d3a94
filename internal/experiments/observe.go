package experiments

import (
	"fmt"
	"io"

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
// RunAttrTrace attaches the per-invocation span builder.
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
}

// ObserveOutputs are the exports of an instrumented replay; each run
// writes whichever of them are non-nil.
type ObserveOutputs struct {
	// Trace receives the Chrome/Perfetto trace JSON; RunAttrTrace adds
	// one attribution track per invocation.
	Trace io.Writer
	// Metrics receives the sampled time series as CSV (RunObserve).
	Metrics io.Writer
	// Summary receives the human-readable summary: the observability
	// digest (RunObserve) or the attribution digest (RunAttrTrace).
	Summary io.Writer
	// Snapshot receives the final metrics snapshot as metric,value CSV
	// (RunObserve's default machine output).
	Snapshot io.Writer
	// CSV receives the long-form attribution table (RunAttrTrace's
	// default machine output).
	CSV io.Writer
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
func RunObserve(o ObserveOptions, out ObserveOutputs) error {
	rec := newRecorder(out.Trace != nil)
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
		sampler = obs.NewSampler(eng, reg, o.SampleEvery, out.Metrics)
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
	platform, err := cell.run()
	if err != nil {
		return err
	}
	sampler.Stop()

	if out.Trace != nil {
		if err := invtrace.WritePerfetto(out.Trace, rec.Events(), nil); err != nil {
			return err
		}
	}
	if err := sampler.Flush(); err != nil {
		return err
	}
	if out.Summary != nil {
		if err := obs.WriteSummary(out.Summary, rec, reg, platform.Engine().Now()); err != nil {
			return err
		}
	}
	if out.Snapshot != nil {
		if _, err := fmt.Fprintln(out.Snapshot, "metric,value"); err != nil {
			return err
		}
		for _, mv := range reg.Snapshot() {
			if _, err := fmt.Fprintf(out.Snapshot, "%s,%s\n", mv.Name, obs.FormatValue(mv.Value)); err != nil {
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
func RunAttrTrace(o ObserveOptions, out ObserveOutputs) error {
	rec := newRecorder(out.Trace != nil)
	builder := invtrace.NewBuilder()
	cell, err := o.cell(func(p *faas.Platform, _ *core.Manager) {
		p.Events().Subscribe(rec)
		builder.Attach(p.Events())
	})
	if err != nil {
		return err
	}
	p, err := cell.run()
	if err != nil {
		return err
	}
	eng := p.Engine()
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
	if out.CSV != nil {
		if err := invtrace.WriteCSV(out.CSV, spans); err != nil {
			return err
		}
	}
	if out.Summary != nil {
		if err := invtrace.WriteSummary(out.Summary, spans); err != nil {
			return err
		}
	}
	if out.Trace != nil {
		if err := invtrace.WritePerfetto(out.Trace, rec.Events(), spans); err != nil {
			return err
		}
	}
	return nil
}
