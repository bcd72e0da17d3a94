package chaos

import (
	"math"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
)

// mustRun runs a scenario whose options must validate.
func mustRun(t *testing.T, o ScenarioOptions) *Result {
	t.Helper()
	res, err := RunScenario(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenarioDeterministic pins the core contract: the same options
// give a byte-identical run, and different seeds give different runs.
func TestScenarioDeterministic(t *testing.T) {
	for _, mode := range []ManagerMode{ManagerOff, ManagerReclaim, ManagerSwap} {
		o := DefaultScenarioOptions(42)
		o.Mode = mode
		a := mustRun(t, o).Fingerprint()
		b := mustRun(t, o).Fingerprint()
		if a != b {
			t.Fatalf("mode %v: same options, different fingerprints:\n%s\nvs\n%s", mode, a, b)
		}
		o2 := DefaultScenarioOptions(43)
		o2.Mode = mode
		if c := mustRun(t, o2).Fingerprint(); c == a {
			t.Errorf("mode %v: seeds 42 and 43 produced identical runs", mode)
		}
	}
}

// TestZeroIntensityIsNoOp is the differential-robustness contract: a
// run with the injector wired at Intensity 0 is byte-identical to a
// run with no injector wired at all.
func TestZeroIntensityIsNoOp(t *testing.T) {
	for _, mode := range []ManagerMode{ManagerOff, ManagerReclaim, ManagerSwap} {
		wired := DefaultScenarioOptions(7)
		wired.Mode = mode
		wired.Chaos.Intensity = 0

		bare := wired
		bare.NoInjector = true

		wf := mustRun(t, wired).Fingerprint()
		bf := mustRun(t, bare).Fingerprint()
		if wf != bf {
			t.Fatalf("mode %v: intensity-0 injector perturbed the run:\nwired:\n%s\nbare:\n%s", mode, wf, bf)
		}
		if strings.Contains(wf, "faults thaw=0 fail=0 partial=0 oom=0 freezelost=0 squeeze=0 burst=0") == false {
			t.Fatalf("mode %v: intensity-0 injector fired faults:\n%s", mode, wf)
		}
	}
}

// TestFaultsActuallyFire guards against the injector silently rotting
// into a no-op: at full intensity over a busy window, every fault
// family with steady traffic must fire at least once.
func TestFaultsActuallyFire(t *testing.T) {
	o := DefaultScenarioOptions(3)
	o.Mode = ManagerReclaim
	o.Requests = 400
	res := mustRun(t, o)
	c := res.Faults
	if c.ReclaimFails == 0 && c.PartialReclaims == 0 {
		t.Errorf("no reclaim faults fired: %+v", c)
	}
	if c.OOMKills == 0 {
		t.Errorf("no OOM kills fired: %+v", c)
	}
	if c.Bursts == 0 {
		t.Errorf("no bursts fired: %+v", c)
	}
	if c.SwapSqueezes == 0 {
		t.Errorf("no swap squeezes fired: %+v", c)
	}
	if res.Platform.OOMKills == 0 {
		t.Errorf("injected OOM kills did not reach platform stats")
	}
	if res.Manager.FailedReclaims == 0 && res.Manager.PartialReclaims == 0 {
		t.Errorf("injected reclaim faults did not reach manager stats: %+v", res.Manager)
	}
	if len(res.AuditErrors) != 0 {
		t.Errorf("page accounting audit failed under faults: %v", res.AuditErrors)
	}
}

// TestRequeueSamplesQueueDepth is the regression test for the
// requeue-after-OOM blind spot: the queue-depth series used to be
// sampled only on enqueue and drain, so a kill whose victim was
// re-admitted on the spot left no sample at the churn instant. Every
// injected OOM kill that requeues (i.e. does not drop) must now be
// followed by an EvQueueDepth sample at the same timestamp.
func TestRequeueSamplesQueueDepth(t *testing.T) {
	o := DefaultScenarioOptions(3)
	o.Requests = 400
	res := mustRun(t, o)
	if res.Platform.Requeues == 0 {
		t.Fatal("scenario fired no requeues; widen it before trusting this test")
	}
	requeues, sampled := 0, 0
	for i, ev := range res.Events {
		if ev.Kind != obs.EvOOMKill {
			continue
		}
		// A kill that exhausted the budget drops instead of requeueing;
		// the drop event carries the same victim ID at the same instant.
		dropped := false
		for j := i + 1; j < len(res.Events) && res.Events[j].Time == ev.Time; j++ {
			if res.Events[j].Kind == obs.EvInvokeDrop && res.Events[j].Invo == ev.Invo {
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		requeues++
		for j := i + 1; j < len(res.Events) && res.Events[j].Time == ev.Time; j++ {
			if res.Events[j].Kind == obs.EvQueueDepth {
				sampled++
				break
			}
		}
	}
	if requeues != int(res.Platform.Requeues) {
		t.Fatalf("event stream shows %d requeueing kills, platform counted %d",
			requeues, res.Platform.Requeues)
	}
	if sampled != requeues {
		t.Fatalf("only %d of %d requeue instants carry a queue-depth sample", sampled, requeues)
	}
}

// TestSwapModeFaults drives the swapping baseline into its dedicated
// fault paths: squeezes must exhaust the device and trigger fallback.
func TestSwapModeFaults(t *testing.T) {
	o := DefaultScenarioOptions(11)
	o.Mode = ManagerSwap
	o.Requests = 400
	o.SwapLimitPages = 1 << 10 // 4 MiB: trivially exhausted
	o.SwapSqueezes = 4
	res := mustRun(t, o)
	if res.Manager.SwapFallbacks == 0 {
		t.Errorf("squeezed swap device never forced a fallback: %+v", res.Manager)
	}
	if len(res.AuditErrors) != 0 {
		t.Errorf("page accounting audit failed in swap mode: %v", res.AuditErrors)
	}
}

// TestCandidateVisiblePure pins that visibility is a pure function:
// repeated queries with the same (inst, frozenAt) at the same instant
// agree, and consume no injector stream state.
func TestCandidateVisiblePure(t *testing.T) {
	j := NewInjector(DefaultConfig(5))
	frozen := sim.Time(3 * sim.Second)
	now := frozen.Add(1 * sim.Second)
	first := j.CandidateVisible(17, frozen, now)
	for i := 0; i < 100; i++ {
		if j.CandidateVisible(17, frozen, now) != first {
			t.Fatalf("CandidateVisible not stable across calls")
		}
	}
	// A delayed instance must become visible once enough time passes.
	found := false
	for id := 0; id < 200 && !found; id++ {
		f := sim.Time(sim.Duration(id) * sim.Millisecond)
		if !j.CandidateVisible(id, f, f) && j.CandidateVisible(id, f, f.Add(maxFreezeDelay)) {
			found = true
		}
	}
	if !found {
		t.Errorf("no candidate was ever delay-hidden then revealed; delay path dead?")
	}
}

// TestInjectorEmitsFaultEvents checks each fired fault reaches the bus
// as a chaos.fault event.
func TestInjectorEmitsFaultEvents(t *testing.T) {
	o := DefaultScenarioOptions(3)
	o.Mode = ManagerReclaim
	o.Requests = 400
	res := mustRun(t, o)
	var faults int64
	for _, ev := range res.Events {
		if ev.Kind == obs.EvFault {
			faults++
		}
	}
	c := res.Faults
	want := c.ThawRaces + c.ReclaimFails + c.PartialReclaims + c.OOMKills + c.FreezeLosses + c.SwapSqueezes + c.Bursts
	if faults != want {
		t.Errorf("recorded %d chaos.fault events, injector counted %d", faults, want)
	}
	if faults == 0 {
		t.Errorf("no chaos.fault events recorded at full intensity")
	}
}

// recordingLimiter captures every swap-limit change for inspection.
type recordingLimiter struct{ limits []int64 }

func (l *recordingLimiter) SetSwapLimit(pages int64) { l.limits = append(l.limits, pages) }
func (l *recordingLimiter) SwapPages() int64         { return 0 }

// TestSwapSqueezeEventBytes is the regression test for a unit bug the
// unitcheck analyzer caught: the squeeze event's Bytes field was
// computed as lim*4096, a literal silently assuming the page size. The
// event must report exactly the limit the device received, converted
// through osmem.PageSize.
func TestSwapSqueezeEventBytes(t *testing.T) {
	eng := sim.NewEngine()
	p := faas.New(faas.DefaultConfig(), eng)
	rec := obs.NewRecorder()
	p.Events().Subscribe(rec)
	j := NewInjector(DefaultConfig(9))
	j.Bind(p)
	lim := &recordingLimiter{}
	const basePages = int64(1) << 14
	j.ArmSwapSqueezes(eng, lim, basePages, 3, 10*sim.Second)
	eng.Run()

	var squeezes []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvFault && ev.Name == "fault.swap_squeeze" {
			squeezes = append(squeezes, ev)
		}
	}
	// Each squeeze emits then shrinks the device; recoveries restore
	// basePages without emitting, so the i-th non-base limit is the
	// i-th squeeze event's subject.
	var shrunk []int64
	for _, p := range lim.limits {
		if p != basePages {
			shrunk = append(shrunk, p)
		}
	}
	if len(squeezes) == 0 || len(squeezes) != len(shrunk) {
		t.Fatalf("got %d squeeze events for %d shrunken limits", len(squeezes), len(shrunk))
	}
	for i, ev := range squeezes {
		if want := shrunk[i] * osmem.PageSize; ev.Bytes != want {
			t.Errorf("squeeze %d: event reports %d bytes, device limit is %d pages (%d bytes)",
				i, ev.Bytes, shrunk[i], want)
		}
	}
}

// TestScenarioOptionsValidate: every degenerate option is an error that
// names its field, and RunScenario returns it without running.
func TestScenarioOptionsValidate(t *testing.T) {
	if err := DefaultScenarioOptions(1).Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	cases := []struct {
		field string
		edit  func(*ScenarioOptions)
	}{
		{"Chaos.Intensity", func(o *ScenarioOptions) { o.Chaos.Intensity = math.NaN() }},
		{"Chaos.Intensity", func(o *ScenarioOptions) { o.Chaos.Intensity = math.Inf(1) }},
		{"Chaos.Intensity", func(o *ScenarioOptions) { o.Chaos.Intensity = -0.5 }},
		{"Chaos.Intensity", func(o *ScenarioOptions) { o.Chaos.Intensity = 1.5 }},
		{"Mode", func(o *ScenarioOptions) { o.Mode = ManagerSwap + 1 }},
		{"Window", func(o *ScenarioOptions) { o.Window = 0 }},
		{"Window", func(o *ScenarioOptions) { o.Window = -sim.Second }},
		{"CacheBytes", func(o *ScenarioOptions) { o.CacheBytes = 0 }},
		{"Requests", func(o *ScenarioOptions) { o.Requests = 0 }},
		{"Requests", func(o *ScenarioOptions) { o.Requests = -3 }},
		{"SwapLimitPages", func(o *ScenarioOptions) { o.SwapLimitPages = -1 }},
		{"SwapSqueezes", func(o *ScenarioOptions) { o.SwapSqueezes = -1 }},
		{"SwapSqueezes", func(o *ScenarioOptions) { o.SwapLimitPages = 0 }},
		{"Bursts", func(o *ScenarioOptions) { o.Bursts = -1 }},
		{"BurstSize", func(o *ScenarioOptions) { o.BurstSize = 0 }},
		{"BurstSize", func(o *ScenarioOptions) { o.Bursts, o.BurstSize = 0, -2 }},
	}
	for _, c := range cases {
		o := DefaultScenarioOptions(1)
		c.edit(&o)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", c.field, err, c.field)
			continue
		}
		ran := false
		o.Observe = func(*faas.Platform, *core.Manager) { ran = true }
		if res, err := RunScenario(o); err == nil || res != nil || ran {
			t.Errorf("%s: RunScenario ran (result %v, error %v)", c.field, res != nil, err)
		}
	}
	// Zero bursts and zero squeezes are valid: the property sweep draws
	// them.
	o := DefaultScenarioOptions(1)
	o.Bursts, o.SwapSqueezes = 0, 0
	if err := o.Validate(); err != nil {
		t.Errorf("zero bursts and squeezes rejected: %v", err)
	}
}
