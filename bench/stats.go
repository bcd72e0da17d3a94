package main

import "sort"

// summary is a sample's median and quartiles.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize computes the median and the quartiles the way Python's
// statistics.median and statistics.quantiles(values, n=4) do, so the
// spreads printed here match any check made with them.
func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	s := summary{N: n, Median: d[n/2]}
	if n%2 == 0 {
		s.Median = (d[n/2-1] + d[n/2]) / 2
	}
	if n == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	q := func(i int) float64 { // the "exclusive" method
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
