package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"desiccant/internal/metrics"
	"desiccant/internal/sim"
)

// WriteCSV renders the long-form attribution table: one row per
// (invocation, phase) with the phase's duration and share of the
// span's end-to-end latency, plus a "total" row per invocation.
// Invocations appear in ID order and phases in taxonomy order, so the
// bytes are a pure function of the span set — the experiment-level
// differential tests cmp this file across -parallel settings.
func WriteCSV(w io.Writer, spans []*Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("invo,function,outcome,submit_us,end_us,phase,dur_us,share\n")
	for _, s := range spans {
		total := s.Total()
		prefix := strconv.FormatInt(s.ID, 10) + "," + s.Function + "," + s.Outcome.String() + "," +
			strconv.FormatInt(int64(s.Submit), 10) + "," + strconv.FormatInt(int64(s.End), 10) + ","
		for p := Phase(0); p < numPhases; p++ {
			d := s.Phases[p]
			if d == 0 {
				continue
			}
			bw.WriteString(prefix)
			bw.WriteString(p.String())
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(d), 10))
			bw.WriteByte(',')
			bw.WriteString(shareString(d, total))
			bw.WriteByte('\n')
		}
		bw.WriteString(prefix)
		bw.WriteString("total,")
		bw.WriteString(strconv.FormatInt(int64(total), 10))
		if _, err := bw.WriteString(",1\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// shareString renders d/total with fixed 4-decimal precision — enough
// to read, deterministic to diff.
func shareString(d, total sim.Duration) string {
	if total == 0 {
		return "0"
	}
	return strconv.FormatFloat(float64(d)/float64(total), 'f', 4, 64)
}

// TailExemplar links one tail quantile of one function's latency to a
// concrete invocation — the span to pull up in the Perfetto trace
// when asking what the tail is made of.
type TailExemplar struct {
	Function string
	Quantile float64
	// EstimateMS is the histogram's upper-bound quantile estimate.
	EstimateMS float64
	// Span is the exemplar invocation: the largest latency in the
	// quantile's bucket, ties to the smallest ID.
	Span *Span
}

// latencyBounds is the shared histogram layout for attribution
// summaries: exponential from 0.1ms past 20 minutes, the full range a
// FaaS invocation plausibly spans.
func latencyBounds() []float64 {
	return metrics.ExponentialBounds(0.1, 1.5, 42)
}

// TailExemplars computes, per function (sorted by name) and per
// requested quantile (given order), the latency estimate and exemplar
// invocation over completed spans. Dropped spans are excluded — their
// latency is censored, not a tail observation.
//
// The exemplar is the span holding the quantile's rank in the
// latency histogram's bucket with the largest latency, ties to the
// smallest ID: spans sorted by latency ascending (ties by descending
// ID), from rank max(1, ceil(q·n)) forward to the last span in the
// same bucket.
func TailExemplars(spans []*Span, quantiles ...float64) []TailExemplar {
	byFn := make(map[string][]*Span)
	var names []string
	for _, s := range spans {
		if s.Outcome != Completed {
			continue
		}
		if _, ok := byFn[s.Function]; !ok {
			names = append(names, s.Function)
		}
		byFn[s.Function] = append(byFn[s.Function], s)
	}
	sort.Strings(names)
	bounds := latencyBounds()
	bucket := func(s *Span) int { return sort.SearchFloat64s(bounds, s.Total().Millis()) }
	var out []TailExemplar
	for _, fn := range names {
		fs := byFn[fn]
		sort.Slice(fs, func(a, b int) bool {
			if la, lb := fs[a].Total().Millis(), fs[b].Total().Millis(); la != lb {
				return la < lb
			}
			return fs[a].ID > fs[b].ID
		})
		h := metrics.NewHistogram(bounds...)
		for _, s := range fs {
			h.Add(s.Total().Millis())
		}
		for _, q := range quantiles {
			est := h.Quantile(q)
			i := max(1, int(math.Ceil(q*float64(len(fs))))) - 1
			b := bucket(fs[i])
			for i+1 < len(fs) && bucket(fs[i+1]) == b {
				i++
			}
			out = append(out, TailExemplar{Function: fn, Quantile: q, EstimateMS: est, Span: fs[i]})
		}
	}
	return out
}

// WriteSummary renders the human attribution digest: span counts,
// machine-wide phase totals, and per-function tail quantiles each
// linked to an exemplar invocation and its dominant phase — the
// report that answers "p99 cold starts are dominated by
// thaw-during-reclaim for function X" directly.
func WriteSummary(w io.Writer, spans []*Span) error {
	var completed, dropped int
	var grand sim.Duration
	var phases [numPhases]sim.Duration
	for _, s := range spans {
		if s.Outcome == Completed {
			completed++
		} else {
			dropped++
		}
		grand += s.Total()
		for p := Phase(0); p < numPhases; p++ {
			phases[p] += s.Phases[p]
		}
	}
	if _, err := fmt.Fprintf(w, "== attribution summary ==\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "invocations: %d completed, %d dropped (%d total)\n",
		completed, dropped, len(spans))

	fmt.Fprintf(w, "\nlatency by phase (all invocations):\n")
	for p := Phase(0); p < numPhases; p++ {
		if phases[p] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %12dus  %s\n", p.String(), int64(phases[p]), percentString(phases[p], grand))
	}

	fmt.Fprintf(w, "\ntail attribution per function (completed invocations):\n")
	tails := TailExemplars(spans, 0.50, 0.90, 0.99)
	var lastFn string
	for _, te := range tails {
		if te.Function != lastFn {
			lastFn = te.Function
			fmt.Fprintf(w, "  %s:\n", te.Function)
		}
		s := te.Span
		dom := s.Dominant()
		if _, err := fmt.Fprintf(w, "    p%-4s <= %sms  e.g. invo %d (%sms) dominated by %s %s\n",
			quantileLabel(te.Quantile), msString(te.EstimateMS),
			s.ID, msString(s.Total().Millis()),
			describeDominant(s, dom), percentString(s.Phases[dom], s.Total())); err != nil {
			return err
		}
	}
	return nil
}

// describeDominant names the dominant phase, flagging a reclaim stall
// that came from the §4.2 thaw race so the report says
// "thaw-during-reclaim" rather than the bare phase name.
func describeDominant(s *Span, dom Phase) string {
	if dom == PhaseReclaimStall && s.ReclaimThaw {
		return "reclaim_stall (thaw-during-reclaim)"
	}
	return dom.String()
}

// msString renders a millisecond value with fixed 3-decimal precision
// — readable and deterministic to diff.
func msString(v float64) string {
	return strconv.FormatFloat(v, 'f', 3, 64)
}

func quantileLabel(q float64) string {
	return strconv.FormatFloat(q*100, 'f', -1, 64)
}

func percentString(d, total sim.Duration) string {
	if total == 0 {
		return "(0.0%)"
	}
	return "(" + strconv.FormatFloat(100*float64(d)/float64(total), 'f', 1, 64) + "%)"
}
