package main

import "testing"

// The expected values are Python's statistics.median and
// statistics.quantiles(values, n=4) on the same inputs.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		in             []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2, 9, 4, 4, 7, 1.5}, 1.875, 4, 7.5},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, s, c.q1, c.median, c.q3)
		}
	}
}
