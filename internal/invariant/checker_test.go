package invariant

import (
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// harness builds a minimal platform with a checker attached.
func harness(t *testing.T) (*sim.Engine, *obs.Bus, *faas.Platform, *Checker) {
	t.Helper()
	eng := sim.NewEngine()
	p := faas.New(faas.DefaultConfig(), eng)
	c := Attach(p, nil)
	return eng, p.Events(), p, c
}

// TestCleanRunHasNoViolations drives a plain fault-free workload and
// expects silence.
func TestCleanRunHasNoViolations(t *testing.T) {
	eng, _, p, c := harness(t)
	spec, err := workload.Lookup("matrix")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Submit(spec, sim.Time(sim.Duration(i)*sim.Second))
	}
	eng.RunUntil(sim.Time(20 * sim.Second))
	if v := c.Final(); len(v) != 0 {
		t.Fatalf("violations on a clean run:\n%s", strings.Join(v, "\n"))
	}
	if c.Sweeps() == 0 {
		t.Fatal("checker never swept")
	}
}

// TestWarmSweepAllocFree pins a sweep over a managed machine with Java
// and JavaScript instances both frozen and in flight at 0 allocations:
// the cached, in-flight, address-space and heap-layout lists are the
// checker's own scratch, filled in place and reused sweep to sweep.
func TestWarmSweepAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	mcfg := core.DefaultConfig()
	var c *Checker
	p, mgr, err := core.NewMachine(eng, faas.DefaultConfig(), &mcfg, func(p *faas.Platform, mgr *core.Manager) {
		c = Attach(p, mgr)
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"matrix", "clock", "image-resize", "fft", "sort"}
	for i, n := range names {
		if err := p.SubmitName(n, sim.Time(sim.Duration(i)*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(20 * sim.Second))
	for _, n := range names[:2] {
		if err := p.SubmitName(n, eng.Now()); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(eng.Now().Add(sim.Millisecond))
	if p.CachedCount() == 0 || p.InFlightCount() == 0 {
		t.Fatalf("%d cached and %d in-flight instances, want some of each", p.CachedCount(), p.InFlightCount())
	}
	c.sweep() // sizes the scratch lists
	if n := testing.AllocsPerRun(100, c.sweep); n != 0 {
		t.Fatalf("warm sweep: %v allocations, want 0", n)
	}
	mgr.Stop()
	if v := c.Final(); len(v) != 0 {
		t.Fatalf("violations:\n%s", strings.Join(v, "\n"))
	}
}

// TestMonotoneRegressionDetected makes a platform counter go backward
// (via ResetStats) and expects the checker to flag it.
func TestMonotoneRegressionDetected(t *testing.T) {
	eng, bus, p, c := harness(t)
	spec, err := workload.Lookup("pi")
	if err != nil {
		t.Fatal(err)
	}
	p.Submit(spec, 0)
	eng.RunUntil(sim.Time(5 * sim.Second))
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("unexpected early violations: %v", v)
	}
	p.ResetStats()
	// Synthesize an instance event so a sweep runs over the rewound
	// counters.
	bus.Emit(obs.Event{Kind: obs.EvFault, Inst: -1, Name: "test.rewind"})
	eng.RunUntil(sim.Time(6 * sim.Second))
	found := false
	for _, s := range c.Violations() {
		if strings.Contains(s, "monotone") {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter rewind not detected; violations: %v", c.Violations())
	}
}

// TestReclaimStateMachineChecks feeds an illegal event sequence
// directly: an end without a begin, and a double begin.
func TestReclaimStateMachineChecks(t *testing.T) {
	_, bus, _, c := harness(t)
	bus.Emit(obs.Event{Kind: obs.EvReclaimEnd, Inst: 99, Name: "ghost"})
	bus.Emit(obs.Event{Kind: obs.EvReclaimBegin, Inst: 7, Name: "x"})
	bus.Emit(obs.Event{Kind: obs.EvReclaimBegin, Inst: 7, Name: "x"})
	var withoutBegin, doubleBegin bool
	for _, s := range c.Violations() {
		if strings.Contains(s, "without a begin") {
			withoutBegin = true
		}
		if strings.Contains(s, "already mid-reclaim") {
			doubleBegin = true
		}
	}
	if !withoutBegin || !doubleBegin {
		t.Fatalf("state-machine checks missed: %v", c.Violations())
	}
}

// TestViolationCapTruncates keeps the checker bounded under a
// pathological event storm.
func TestViolationCapTruncates(t *testing.T) {
	_, bus, _, c := harness(t)
	for i := 0; i < maxViolations+50; i++ {
		bus.Emit(obs.Event{Kind: obs.EvReclaimEnd, Inst: 1000 + i, Name: "ghost"})
	}
	v := c.Final()
	if len(v) > maxViolations+1 {
		t.Fatalf("violation list unbounded: %d entries", len(v))
	}
	if !strings.Contains(v[len(v)-1], "truncated") {
		t.Fatalf("missing truncation marker: %v", v[len(v)-1])
	}
}
