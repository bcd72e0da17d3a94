package trace

import (
	"testing"

	"desiccant/internal/sim"
)

// TestTailExemplars checks the exemplar rule on hand-built spans: the
// span at the quantile's rank names a latency bucket, and the exemplar
// is that bucket's largest latency, ties to the smallest ID.
func TestTailExemplars(t *testing.T) {
	span := func(id int64, fn string, out Outcome, latencyUS int64) *Span {
		return &Span{ID: id, Function: fn, Outcome: out, Submit: 1000, End: sim.Time(1000 + latencyUS)}
	}
	// Function "a", by latencyBounds() bucket:
	//   (0.759, 1.139]ms: 0.8 (#1), 0.9 (#2), 1.0 (#3), 1.1 (#4)
	//   (1.139, 1.709]ms: 1.2 (#5), 1.5 (#6)
	//   (43.79, 65.68]ms: 45 (#8), 60 (#9), 60 (#7)
	// plus a dropped 500ms span (#100) that must not count. Function
	// "b" has one span; "z" has only a dropped one and no row at all.
	spans := []*Span{
		span(9, "a", Completed, 60000),
		span(50, "b", Completed, 3000),
		span(3, "a", Completed, 1000),
		span(100, "a", DroppedOOM, 500000),
		span(1, "a", Completed, 800),
		span(7, "a", Completed, 60000),
		span(6, "a", Completed, 1500),
		span(101, "z", DroppedRequeue, 2000),
		span(2, "a", Completed, 900),
		span(8, "a", Completed, 45000),
		span(5, "a", Completed, 1200),
		span(4, "a", Completed, 1100),
	}
	quantiles := []float64{0, 0.2, 0.5, 0.7, 0.99, 1}
	want := []struct {
		fn  string
		q   float64
		id  int64
		est float64
	}{
		{"a", 0, 4, 1.1390625},            // rank 1 is #1; its bucket's largest is #4
		{"a", 0.2, 4, 1.1390625},          // rank 2 is #2, not the bucket's largest
		{"a", 0.5, 6, 1.7085937500000001}, // rank 5 is #5; walk to #6
		{"a", 0.7, 7, 60},                 // rank 7 is 45ms; the two 60ms tie, #7 < #9
		{"a", 0.99, 7, 60},
		{"a", 1, 7, 60}, // the dropped 500ms span is not the maximum
		{"b", 0, 50, 3},
		{"b", 0.2, 50, 3},
		{"b", 0.5, 50, 3},
		{"b", 0.7, 50, 3},
		{"b", 0.99, 50, 3},
		{"b", 1, 50, 3},
	}
	got := TailExemplars(spans, quantiles...)
	if len(got) != len(want) {
		t.Fatalf("got %d exemplars, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Function != w.fn || g.Quantile != w.q || g.Span.ID != w.id || g.EstimateMS != w.est {
			t.Errorf("row %d = %s p%v invo %d est %v, want %s p%v invo %d est %v",
				i, g.Function, g.Quantile, g.Span.ID, g.EstimateMS, w.fn, w.q, w.id, w.est)
		}
	}
}
