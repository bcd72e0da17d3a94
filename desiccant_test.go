package desiccant

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"desiccant/internal/invariant"
	"desiccant/internal/obs/trace"
)

// newSim builds a simulation from a configuration the test expects to
// be valid.
func newSim(t testing.TB, cfg Config) *Simulation {
	t.Helper()
	s, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFacadeRejectsInvalidConfigs checks that NewSimulation returns an
// error naming the field for configurations it used to run silently
// (the manager made fewer reclamations than at the default) or to
// panic on (an invalid platform).
func TestFacadeRejectsInvalidConfigs(t *testing.T) {
	manager := func(edit func(*ManagerConfig)) Config {
		m := DefaultManagerConfig()
		edit(&m)
		return Config{Manager: &m}
	}
	platform := func(edit func(*PlatformConfig)) Config {
		p := DefaultPlatformConfig()
		edit(&p)
		return Config{Platform: &p, EnableDesiccant: true}
	}
	cases := []struct {
		name, field string
		cfg         Config
	}{
		{"low threshold NaN", "LowThreshold", manager(func(m *ManagerConfig) { m.LowThreshold = math.NaN() })},
		{"inverted thresholds", "HighThreshold", manager(func(m *ManagerConfig) { m.LowThreshold, m.HighThreshold = 0.9, 0.6 })},
		{"max concurrent -1", "MaxConcurrent", manager(func(m *ManagerConfig) { m.MaxConcurrent = -1 })},
		{"negative freeze timeout", "FreezeTimeout", manager(func(m *ManagerConfig) { m.FreezeTimeout = -1 })},
		{"idle CPU +Inf", "ActivateOnIdleCPU", manager(func(m *ManagerConfig) { m.ActivateOnIdleCPU = math.Inf(1) })},
		{"no CPUs", "CPU", platform(func(p *PlatformConfig) { p.CPUs = 0 })},
	}
	for _, c := range cases {
		s, err := NewSimulation(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.field) || s != nil {
			t.Errorf("%s: simulation %v, err %v; want nil and an error naming %s", c.name, s, err, c.field)
		}
	}
}

func TestFacadeSimulation(t *testing.T) {
	s := newSim(t, Config{EnableDesiccant: true})
	defer s.Close()
	if s.Manager == nil {
		t.Fatal("manager not attached")
	}
	if err := s.Platform.SubmitName("fft", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Platform.SubmitName("sort", Time(Seconds(2))); err != nil {
		t.Fatal(err)
	}
	s.RunFor(Seconds(10))
	st := s.Platform.Stats()
	if st.Completions != 2 {
		t.Fatalf("completions: %d", st.Completions)
	}
}

func TestFacadeVanilla(t *testing.T) {
	s := newSim(t, Config{})
	if s.Manager != nil {
		t.Fatal("manager attached without request")
	}
	s.Close() // must be a no-op
}

func TestFacadeCustomConfigs(t *testing.T) {
	pcfg := DefaultPlatformConfig()
	pcfg.CacheBytes = 512 << 20
	pcfg.Policy = PolicyEager
	mcfg := DefaultManagerConfig()
	mcfg.UnmapLibraries = false
	s := newSim(t, Config{Platform: &pcfg, Manager: &mcfg})
	defer s.Close()
	if s.Platform.Config().CacheBytes != 512<<20 {
		t.Fatal("platform config not applied")
	}
	if s.Manager == nil {
		t.Fatal("Manager config should imply attachment")
	}
}

func TestFacadeReplayTrace(t *testing.T) {
	s := newSim(t, Config{EnableDesiccant: true})
	defer s.Close()
	n, err := s.ReplayTrace(11, 2.0, 0, Time(Seconds(30)), 10)
	if err != nil || n == 0 {
		t.Fatalf("scheduled %d requests, err %v", n, err)
	}
	s.RunUntil(Time(Seconds(60)))
	if s.Platform.Stats().Completions == 0 {
		t.Fatal("nothing completed")
	}
}

// TestFacadeReplayTraceRejectsDegenerateInputs: a NaN, zero, negative
// or infinite base rate or scale is an error naming the field, with
// nothing scheduled, never a panic.
func TestFacadeReplayTraceRejectsDegenerateInputs(t *testing.T) {
	bad := []float64{math.NaN(), 0, -1, math.Inf(1)}
	for _, v := range bad {
		for _, c := range []struct {
			field           string
			baseRate, scale float64
		}{{"BaseRate", v, 10}, {"Scale", 2.0, v}} {
			s := newSim(t, Config{})
			pending := s.Engine.Pending()
			n, err := s.ReplayTrace(11, c.baseRate, 0, Time(Seconds(30)), c.scale)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %v: err %v, want one naming %s", c.field, v, err, c.field)
			}
			if n != 0 || s.Engine.Pending() != pending {
				t.Errorf("%s = %v: %d requests, %d events scheduled", c.field, v, n, s.Engine.Pending()-pending)
			}
			s.Close()
		}
	}
}

// TestFacadeReplayPins pins the sha256 of the facade's stats after a
// short trace replay, with and without Desiccant, so a change to how
// NewSimulation wires the machine cannot shift a result unnoticed.
func TestFacadeReplayPins(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"vanilla", Config{}, "2478df76ebd501820c0788c0d8133f9954732c4a0ee989e7a51303eb15486efe"},
		{"desiccant", Config{EnableDesiccant: true}, "9c292aa78b61294c7014af68933a8589a46275a1f669c6a1ea5f9f3ef088268c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newSim(t, c.cfg)
			if _, err := s.ReplayTrace(11, 2.0, 0, Time(Seconds(30)), 10); err != nil {
				t.Fatal(err)
			}
			s.RunUntil(Time(Seconds(40)))
			s.Close()
			st := s.Platform.Stats()
			out := fmt.Sprintf("req=%d done=%d cold=%d warm=%d evict=%d oom=%d drops=%d p50=%.6f p99=%.6f wait=%.6f cpu=%d reclaim=%d\n",
				st.Requests, st.Completions, st.ColdBoots, st.WarmStarts, st.Evictions, st.OOMKills, st.Drops,
				st.Latency.Percentile(50), st.Latency.Percentile(99), st.QueueWait.Mean(),
				st.CPUBusy, st.ReclaimCPU)
			if s.Manager != nil {
				out += fmt.Sprintf("%+v threshold=%.6f\n", s.Manager.Stats(), s.Manager.Threshold())
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("sha256 %s, pinned %s:\n%s", got, c.want, out)
			}
		})
	}
}

func TestFacadeFunctionRegistry(t *testing.T) {
	if len(Functions()) != 20 {
		t.Fatalf("functions: %d", len(Functions()))
	}
	spec, err := LookupFunction("mapreduce")
	if err != nil || spec.ChainLength != 2 {
		t.Fatalf("lookup: %v %+v", err, spec)
	}
	if _, err := LookupFunction("bogus"); err == nil {
		t.Fatal("bogus lookup succeeded")
	}
	if Seconds(1.5) != 1_500_000 {
		t.Fatal("Seconds conversion")
	}
	if len(ExtraFunctions()) == 0 {
		t.Fatal("no extension workloads")
	}
	for _, s := range ExtraFunctions() {
		if s.Language != "python" {
			t.Fatalf("unexpected extra language: %s", s.Language)
		}
	}
}

func TestFacadePythonFunction(t *testing.T) {
	s := newSim(t, Config{EnableDesiccant: true})
	defer s.Close()
	if err := s.Platform.SubmitName("py-etl", 0); err != nil {
		t.Fatal(err)
	}
	s.RunFor(Seconds(5))
	if s.Platform.Stats().Completions != 1 {
		t.Fatal("python function did not complete through the facade")
	}
}

// TestFacadeJavaSmallBudgets: at these instance budgets the serial
// heap's young collections once promoted more survivors than the old
// generation could take and panicked mid-copy. Every request must now
// end as a completion or an out-of-memory drop.
func TestFacadeJavaSmallBudgets(t *testing.T) {
	for _, mib := range []int64{11, 35, 36} {
		for _, spec := range Functions() {
			if spec.Language != "java" {
				continue
			}
			pcfg := DefaultPlatformConfig()
			pcfg.InstanceBudget = mib << 20
			s := newSim(t, Config{Platform: &pcfg})
			for i := 0; i < 5; i++ {
				if err := s.Platform.SubmitName(spec.Name, Time(Seconds(float64(i)))); err != nil {
					t.Fatal(err)
				}
			}
			s.RunFor(Seconds(60))
			if st := s.Platform.Stats(); st.Completions+st.Drops != 5 {
				t.Fatalf("%s at %d MiB: %d completions + %d drops of 5 requests", spec.Name, mib, st.Completions, st.Drops)
			}
		}
	}
}

// TestFacadeJavaScriptSmallBudgets: below 20 MiB a V8 heap can run out
// of room in the middle of a scavenge or of a full GC's survivor copy.
// The allocation must fail with ErrOutOfMemory, so every request ends
// as a completion or a drop and the checker sees a whole heap, never a
// panic.
func TestFacadeJavaScriptSmallBudgets(t *testing.T) {
	for mib := int64(5); mib <= 19; mib++ {
		for _, spec := range Functions() {
			if spec.Language != "javascript" {
				continue
			}
			pcfg := DefaultPlatformConfig()
			pcfg.InstanceBudget = mib << 20
			s := newSim(t, Config{Platform: &pcfg})
			chk := invariant.Attach(s.Platform, nil)
			for i := 0; i < 5; i++ {
				if err := s.Platform.SubmitName(spec.Name, Time(Seconds(float64(i)))); err != nil {
					t.Fatal(err)
				}
			}
			s.RunFor(Seconds(60))
			if st := s.Platform.Stats(); st.Completions+st.Drops != 5 {
				t.Fatalf("%s at %d MiB: %d completions + %d drops of 5 requests", spec.Name, mib, st.Completions, st.Drops)
			}
			if v := chk.Final(); len(v) != 0 {
				t.Fatalf("%s at %d MiB: %d invariant violations: %v", spec.Name, mib, len(v), v)
			}
		}
	}
}

// TestFacadeBootFailureSpan: a request whose boot fails closes its
// span as dropped_boot, with the failed boot's 300 ms charged to
// boot.cold rather than queue, and the tiling still exact.
func TestFacadeBootFailureSpan(t *testing.T) {
	pcfg := DefaultPlatformConfig()
	pcfg.InstanceBudget = 3 << 20
	s := newSim(t, Config{Platform: &pcfg})
	b := trace.NewBuilder()
	b.Attach(s.Platform.Events())
	if err := s.Platform.SubmitName("fft", 0); err != nil {
		t.Fatal(err)
	}
	s.RunFor(Seconds(5))
	spans := b.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	sp := spans[0]
	want := []trace.Segment{{Phase: trace.PhaseBootCold, Start: 0, Dur: Seconds(0.3), Inst: -1}}
	if sp.Outcome != trace.DroppedBoot || sp.Outcome.String() != "dropped_boot" || sp.Boots != 1 ||
		fmt.Sprint(sp.Segments) != fmt.Sprint(want) {
		t.Fatalf("span %s, %d boots, segments %v; want dropped_boot, 1 boot, %v", sp.Outcome, sp.Boots, sp.Segments, want)
	}
	if err := trace.CheckExact(spans); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeBootFailureDrops: at a 3 MiB budget the V8 heap cannot
// fit its initial semispaces, so instance creation fails at every boot
// and no stem cell can be pooled. Each request must end as a drop (no
// instance existed to OOM-kill) with the platform's conservation laws
// intact, never as a panic.
func TestFacadeBootFailureDrops(t *testing.T) {
	for i, name := range []string{"fft", "clock"} {
		pcfg := DefaultPlatformConfig()
		pcfg.InstanceBudget = 3 << 20
		pcfg.PrewarmPerLanguage = i
		s := newSim(t, Config{Platform: &pcfg})
		chk := invariant.Attach(s.Platform, nil)
		for i := 0; i < 5; i++ {
			if err := s.Platform.SubmitName(name, Time(Seconds(float64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		s.RunFor(Seconds(60))
		if st := s.Platform.Stats(); st.Drops != 5 || st.Completions != 0 || st.OOMKills != 0 {
			t.Fatalf("%s: %d drops, %d completions, %d OOM kills; want 5/0/0", name, st.Drops, st.Completions, st.OOMKills)
		}
		if got := s.Platform.IdleCPU(); got != pcfg.CPUs {
			t.Fatalf("%s: %v of %v CPUs idle after every boot failed", name, got, pcfg.CPUs)
		}
		if v := chk.Final(); len(v) != 0 {
			t.Fatalf("%s: %d invariant violations: %v", name, len(v), v)
		}
	}
}
