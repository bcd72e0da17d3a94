package cluster

import (
	"math"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/invariant"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

// optionFields are the names an Options error may carry: every
// settable field, the trace's as trace.Synthetic.Validate spells them.
var optionFields = []string{"Nodes", "Window", "Scale", "Functions", "BaseRate", "CacheBytes",
	"ZipfSkew", "policy", "mode", "Migration.HighFrac", "Migration.LowFrac"}

// pick maps a fuzz byte onto names plus one name no lookup knows.
func pick(names []string, i uint8) string {
	if i := int(i) % (len(names) + 1); i < len(names) {
		return names[i]
	}
	return "unknown"
}

// FuzzClusterOptions decodes every Options value from the fuzz input,
// floats from raw bits so NaN, ±Inf and negative values are reachable.
// Options that fail validation must say which field is wrong. Valid
// options must replay without error into a result whose router and
// nodes agree (CheckConsistency), with an invariant checker on every
// node when observe is set. Valid inputs costlier than 4 nodes, a 3 s
// window, 2000 functions or about 500 expected requests are skipped
// to keep one input cheap; a skip is not a pass.
func FuzzClusterOptions(f *testing.F) {
	b := math.Float64bits
	sec := int64(sim.Second)
	f.Add(2, 2*sec, b(15), uint64(11), 120, b(2.2), int64(64<<20), b(0.9), uint8(3), uint8(1), b(0.5), b(0.45), true)
	f.Add(4, 3*sec, b(15), uint64(3), 60, b(2.2), int64(48<<20), b(0), uint8(2), uint8(2), b(0.5), b(0.45), false)
	f.Add(3, 2*sec, b(20), uint64(7), 80, b(2.2), int64(32<<20), b(1.2), uint8(0), uint8(0), b(0.4), b(0), true)
	f.Add(1, 1*sec, b(10), uint64(1), 40, b(2.2), int64(1), b(0), uint8(1), uint8(1), b(0), b(0), false)
	f.Add(2, int64(1), b(1), uint64(5), 20, b(1e-9), int64(1<<30), b(0), uint8(3), uint8(0), b(0.85), b(0.5), true)
	f.Add(0, 2*sec, b(15), uint64(11), 120, b(2.2), int64(64<<20), b(0.9), uint8(3), uint8(1), b(0), b(0), false)
	f.Add(2, -sec, b(15), uint64(11), 120, b(2.2), int64(64<<20), b(0.9), uint8(3), uint8(1), b(0), b(0), false)
	f.Add(2, 2*sec, b(math.NaN()), uint64(11), 120, b(2.2), int64(64<<20), b(0.9), uint8(3), uint8(1), b(0), b(0), false)
	f.Add(2, 2*sec, b(15), uint64(11), 19, b(math.Inf(1)), int64(64<<20), b(0.9), uint8(3), uint8(1), b(0), b(0), false)
	f.Add(2, 2*sec, b(15), uint64(11), 120, b(2.2), int64(0), b(-2), uint8(4), uint8(3), b(0), b(0), false)
	f.Add(2, 2*sec, b(15), uint64(11), 120, b(2.2), int64(64<<20), b(0.9), uint8(3), uint8(1), b(math.Inf(-1)), b(math.NaN()), false)
	f.Add(2, 2*sec, b(15), uint64(11), 120, b(2.2), int64(64<<20), b(0.9), uint8(3), uint8(1), b(0.6), b(0.6), false)
	f.Fuzz(func(t *testing.T, nodes int, window int64, scale, seed uint64, functions int, baseRate uint64,
		cache int64, zipf uint64, policy, mode uint8, high, low uint64, observe bool) {
		o := Options{
			Nodes:      nodes,
			Window:     sim.Duration(window),
			Scale:      math.Float64frombits(scale),
			Synthetic:  trace.Synthetic{Seed: seed, Functions: functions, BaseRate: math.Float64frombits(baseRate)},
			CacheBytes: cache,
			ZipfSkew:   math.Float64frombits(zipf),
			Policy:     pick(PolicyNames, policy),
			Mode:       pick(Modes, mode),
			Migration:  Migration{HighFrac: math.Float64frombits(high), LowFrac: math.Float64frombits(low)},
		}
		if err := o.validate(); err != nil {
			for _, field := range optionFields {
				if strings.Contains(err.Error(), field) {
					return
				}
			}
			t.Fatalf("error %q names no field", err)
		}
		expected := o.BaseRate * o.Scale * o.Window.Seconds()
		if o.Nodes > 4 || o.Window > 3*sim.Second || o.Functions > 2000 || !(expected <= 500) {
			t.Skipf("%d nodes, %v window, %d functions, %g expected requests", o.Nodes, o.Window, o.Functions, expected)
		}
		var checkers []*invariant.Checker
		if observe {
			o.ObserveNode = func(p *faas.Platform, mgr *core.Manager) {
				checkers = append(checkers, invariant.Attach(p, mgr))
			}
		}
		res, err := Run(o)
		if err != nil {
			t.Fatalf("valid options %+v: %v", o, err)
		}
		if err := res.CheckConsistency(); err != nil {
			t.Fatalf("options %+v: %v", o, err)
		}
		for node, chk := range checkers {
			if v := chk.Final(); len(v) != 0 {
				t.Fatalf("options %+v node %d: %d invariant violations:\n%s", o, node, len(v), strings.Join(v, "\n"))
			}
		}
	})
}
