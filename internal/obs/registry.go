package obs

import (
	"sort"

	"desiccant/internal/metrics"
)

// Counter is a monotonically increasing named value.
type Counter struct {
	v int64
}

// Add increments the counter by d (negative deltas panic — a counter
// that can go down is a gauge).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("obs: counter decrement")
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a named value that can move in both directions.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry holds named counters, gauges, and fixed-bucket histograms,
// all lazily created on first use. Snapshots iterate sorted names so
// export order never depends on map order or registration order.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*metrics.Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use. Later calls ignore bounds and
// return the existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *metrics.Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = metrics.NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// MetricValue is one named scalar in a snapshot.
type MetricValue struct {
	Name  string
	Value float64
}

// Snapshot returns every counter and gauge, plus each histogram's
// .count/.sum/.min/.max/.p50/.p99 derived scalars, sorted by name.
// min/max are the observed extremes, which keep tail readings honest
// when samples exceed the configured bucket range (the overflow
// bucket alone cannot say how far past the last bound they went). The
// result is freshly allocated and safe to retain.
func (r *Registry) Snapshot() []MetricValue {
	out := make([]MetricValue, 0, len(r.counters)+len(r.gauges)+6*len(r.hists))
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, MetricValue{Name: name, Value: float64(r.counters[name].v)})
	}
	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, MetricValue{Name: name, Value: r.gauges[name].v})
	}
	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		out = append(out,
			MetricValue{Name: name + ".count", Value: float64(h.Count())},
			MetricValue{Name: name + ".sum", Value: h.Sum()},
		)
		if h.Count() > 0 {
			out = append(out,
				MetricValue{Name: name + ".min", Value: h.Min()},
				MetricValue{Name: name + ".max", Value: h.Max()},
				MetricValue{Name: name + ".p50", Value: h.Quantile(0.5)},
				MetricValue{Name: name + ".p99", Value: h.Quantile(0.99)},
			)
		}
	}
	return out
}
