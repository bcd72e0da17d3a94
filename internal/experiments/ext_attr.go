package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/cluster"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	invtrace "desiccant/internal/obs/trace"
)

// AttrOptions parameterizes the causal-attribution experiment: a
// cluster replayed once per manager mode, with every invocation traced
// into a span and its latency decomposed into exact phases. The
// attribution outputs are pinned by TestAttrGoldenPreRefactor and
// byte-identical at any -parallel setting (the CI trace-smoke job).
type AttrOptions struct {
	// Cluster is the fleet every mode replays. RunAttr sets its Mode
	// per run and installs its own ObserveNode hook.
	Cluster cluster.Options
	// Modes are the manager modes swept, in report order (see
	// cluster.Modes).
	Modes []string
}

// AttrModeResult is one mode's replay: the merged span set plus
// machine 1's event stream.
type AttrModeResult struct {
	Mode string
	// Spans are every machine's closed spans merged in ID order.
	Spans []*invtrace.Span
	// Open counts spans still open after the drain (0 unless the
	// drain cap was hit).
	Open int
	// Submitted/Completed/Dropped are the fleet-wide span-conservation
	// counters.
	Submitted int64
	Completed int64
	Dropped   int64
	// MachineEvents is machine 1's recorded event stream, the basis of
	// the optional Perfetto export (one machine keeps instance track
	// IDs collision-free).
	MachineEvents []obs.Event
	// MachineSpans are the spans of machine 1 only, matching
	// MachineEvents.
	MachineSpans []*invtrace.Span
}

// AttrResult is the experiment's measurement across modes.
type AttrResult struct {
	Modes []AttrModeResult
}

// RunAttr replays the trace once per mode on the cluster and folds
// every machine's event stream into invocation spans.
func RunAttr(o AttrOptions) (*AttrResult, error) {
	res := &AttrResult{}
	for _, mode := range o.Modes {
		mr, err := runAttrMode(o.Cluster, mode)
		if err != nil {
			return nil, err
		}
		res.Modes = append(res.Modes, *mr)
	}
	return res, nil
}

func runAttrMode(co cluster.Options, mode string) (*AttrModeResult, error) {
	var builders []*invtrace.Builder
	var platforms []*faas.Platform
	rec := obs.NewRecorder()
	rec.Ignore(obs.EvEngineFire)
	co.Mode = mode
	co.ObserveNode = func(p *faas.Platform, _ *core.Manager) {
		b := invtrace.NewBuilder()
		b.Attach(p.Events())
		if len(builders) == 0 {
			// Machine 1 doubles as the Perfetto specimen: its events and
			// spans are self-consistent (instance IDs are only unique
			// per machine, so the trace covers exactly one).
			p.Events().Subscribe(rec)
		}
		builders = append(builders, b)
		platforms = append(platforms, p)
	}
	if _, err := cluster.Run(co); err != nil {
		return nil, err
	}

	mr := &AttrModeResult{Mode: mode, MachineEvents: rec.Events()}
	groups := make([][]*invtrace.Span, len(builders))
	for i, b := range builders {
		groups[i] = b.Spans()
		mr.Open += b.OpenCount()
	}
	mr.Spans = invtrace.MergeSpans(groups...)
	mr.MachineSpans = groups[0]
	for _, p := range platforms {
		st := p.Stats()
		mr.Submitted += st.Requests
		mr.Completed += st.Completions
		mr.Dropped += st.Drops
	}
	if err := invtrace.CheckExact(mr.Spans); err != nil {
		return nil, err
	}
	if got := int64(len(mr.Spans)) + int64(mr.Open); got != mr.Submitted {
		return nil, fmt.Errorf("experiments: attr mode %s: %d spans + %d open != %d submitted",
			mode, len(mr.Spans), mr.Open, mr.Submitted)
	}
	return mr, nil
}

// WriteCSV renders each mode's long-form attribution table, separated
// by mode headers. Deliberately free of -parallel metadata: the bytes
// must match at any setting.
func (r *AttrResult) WriteCSV(w io.Writer) error {
	for _, m := range r.Modes {
		fmt.Fprintf(w, "# mode=%s invocations=%d completed=%d dropped=%d open=%d\n",
			m.Mode, m.Submitted, m.Completed, m.Dropped, m.Open)
		if err := invtrace.WriteCSV(w, m.Spans); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders each mode's human attribution digest.
func (r *AttrResult) WriteSummary(w io.Writer) error {
	for _, m := range r.Modes {
		fmt.Fprintf(w, "== mode %s ==\n", m.Mode)
		if err := invtrace.WriteSummary(w, m.Spans); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WritePerfetto renders machine 1 of the given mode as a Perfetto
// trace with per-invocation attribution tracks riding along the stock
// instance tracks, so every exemplar invocation the summary names on
// that machine is findable by track name.
func (r *AttrResult) WritePerfetto(w io.Writer, mode string) error {
	for _, m := range r.Modes {
		if m.Mode != mode {
			continue
		}
		return invtrace.WritePerfetto(w, m.MachineEvents, m.MachineSpans)
	}
	return fmt.Errorf("experiments: no attr mode %q in result", mode)
}
