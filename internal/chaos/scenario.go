package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// ManagerMode selects what (if anything) sweeps the cache during a
// scenario.
type ManagerMode int

// Manager modes exercised by the chaos sweep and the property tests.
const (
	// ManagerOff runs the platform bare: no background sweeper, so
	// faults target only the invocation path.
	ManagerOff ManagerMode = iota
	// ManagerReclaim attaches Desiccant in GC-cooperative mode.
	ManagerReclaim
	// ManagerSwap attaches the swapping baseline (where swap-device
	// exhaustion faults bite).
	ManagerSwap
)

func (m ManagerMode) String() string {
	switch m {
	case ManagerOff:
		return "off"
	case ManagerReclaim:
		return "reclaim"
	case ManagerSwap:
		return "swap"
	default:
		return "mode(?)"
	}
}

// ScenarioOptions parameterizes one fault-injected run. Everything a
// run does is a function of these options: two RunScenario calls with
// equal options produce byte-identical Results.
type ScenarioOptions struct {
	// Chaos configures the injector; Chaos.Seed also drives the
	// scenario's own workload randomness.
	Chaos Config
	// NoInjector runs the fault-free baseline: nothing is wired into
	// the platform or manager at all. The differential-robustness test
	// holds such a run byte-identical to a wired run at Intensity 0.
	NoInjector bool
	// Mode selects the background sweeper.
	Mode ManagerMode
	// Window is the simulated duration.
	Window sim.Duration
	// CacheBytes is the instance cache size.
	CacheBytes int64
	// Requests arrive uniformly at random over the window, drawn from
	// the full Table-1 workload population.
	Requests int
	// SwapLimitPages caps the swap device (0 = unlimited). Squeezes
	// shrink it further and restore to this base.
	SwapLimitPages int64
	// SwapSqueezes is the number of swap-device squeezes to arm.
	SwapSqueezes int
	// Bursts and BurstSize arm arrival spikes: Bursts spikes of
	// BurstSize back-to-back requests for one function each.
	Bursts    int
	BurstSize int
	// Observe, when non-nil, runs before the manager starts and before
	// any arrival, so a subscriber sees every event of the run — the
	// invariant checker attaches here without chaos importing it.
	Observe core.Observer
}

// DefaultScenarioOptions returns a scenario small enough for a
// property sweep yet busy enough to exercise every fault path:
// the cache is squeezed to force evictions and the manager activates
// on idle CPU so reclamations run even between pressure episodes.
func DefaultScenarioOptions(seed uint64) ScenarioOptions {
	return ScenarioOptions{
		Chaos:          DefaultConfig(seed),
		Mode:           ManagerReclaim,
		Window:         60 * sim.Second,
		CacheBytes:     512 << 20,
		Requests:       200,
		SwapLimitPages: 64 << 8, // 64 MiB of swap
		SwapSqueezes:   3,
		Bursts:         2,
		BurstSize:      12,
	}
}

// Result is everything a scenario run produced, in deterministic form.
type Result struct {
	// Platform is the platform's final counters.
	Platform faas.Stats
	// Manager is the sweeper's final counters (zero under ManagerOff).
	Manager core.Stats
	// Faults tallies the faults the injector actually fired.
	Faults Counts
	// Events is the full recorded event stream (engine fires excluded).
	Events []obs.Event
	// AuditErrors is the machine-wide page-accounting audit at end of
	// run; empty means every page is accounted for.
	AuditErrors []string
	// End is the sim clock at exit.
	End sim.Time
}

// Validate reports the first option a scenario cannot run with, naming
// the field: a fault intensity outside [0,1] (NaN and the infinities
// included), an unknown mode, a non-positive window, cache or request
// count, a negative swap limit or fault count, bursts of no requests,
// and swap squeezes with no swap limit to shrink.
func (o ScenarioOptions) Validate() error {
	switch {
	case !(o.Chaos.Intensity >= 0 && o.Chaos.Intensity <= 1): // NaN fails both comparisons
		return fmt.Errorf("chaos: Chaos.Intensity must be in [0,1], got %v", o.Chaos.Intensity)
	case o.Mode < ManagerOff || o.Mode > ManagerSwap:
		return fmt.Errorf("chaos: unknown Mode %d", int(o.Mode))
	case o.Window <= 0:
		return fmt.Errorf("chaos: Window must be positive, got %v", o.Window)
	case o.CacheBytes <= 0:
		return fmt.Errorf("chaos: CacheBytes must be positive, got %d", o.CacheBytes)
	case o.Requests <= 0:
		return fmt.Errorf("chaos: Requests must be positive, got %d", o.Requests)
	case o.SwapLimitPages < 0:
		return fmt.Errorf("chaos: SwapLimitPages must be non-negative (0 is unlimited), got %d", o.SwapLimitPages)
	case o.SwapSqueezes < 0:
		return fmt.Errorf("chaos: SwapSqueezes must be non-negative, got %d", o.SwapSqueezes)
	case o.SwapSqueezes > 0 && o.SwapLimitPages == 0:
		return fmt.Errorf("chaos: SwapSqueezes %d need a SwapLimitPages to shrink, got 0 (unlimited)", o.SwapSqueezes)
	case o.Bursts < 0:
		return fmt.Errorf("chaos: Bursts must be non-negative, got %d", o.Bursts)
	case o.BurstSize < 0 || o.Bursts > 0 && o.BurstSize == 0:
		return fmt.Errorf("chaos: BurstSize must be positive for %d bursts, got %d", o.Bursts, o.BurstSize)
	}
	return nil
}

// RunScenario executes one fault-injected scenario and returns its
// deterministic Result, or Validate's error without running.
func RunScenario(o ScenarioOptions) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	rec := obs.NewRecorder()
	rec.Ignore(obs.EvEngineFire)

	var inj *Injector
	if !o.NoInjector {
		inj = NewInjector(o.Chaos)
	}

	pcfg := faas.DefaultConfig()
	pcfg.Seed = o.Chaos.Seed
	pcfg.CacheBytes = o.CacheBytes
	if inj != nil {
		pcfg.Chaos = inj
	}
	var mcfg *core.Config
	if o.Mode != ManagerOff {
		c := core.DefaultConfig()
		c.Seed = o.Chaos.Seed + 1
		if o.Mode == ManagerSwap {
			c.Mode = core.ModeSwap
		}
		// Idle-CPU activation keeps reclamations flowing even when the
		// squeezed cache is briefly under threshold, so the reclaim
		// fault paths get steady traffic.
		c.ActivateOnIdleCPU = 4
		if inj != nil {
			c.Injector = inj
		}
		mcfg = &c
	}
	// The recorder subscribes first, so it sees every event Observe's
	// subscribers and the manager see.
	platform, mgr, err := core.NewMachine(eng, pcfg, mcfg, func(p *faas.Platform, mgr *core.Manager) {
		p.Events().Subscribe(rec)
		if o.Observe != nil {
			o.Observe(p, mgr)
		}
	})
	if err != nil {
		return nil, err
	}
	if inj != nil {
		inj.Bind(platform)
	}
	if o.SwapLimitPages > 0 {
		platform.Machine().SetSwapLimit(o.SwapLimitPages)
	}

	// Background arrivals: uniform over the window, drawn from the
	// full workload table on a stream independent of the injector's.
	specs := workload.All()
	arrRNG := sim.NewRNG(o.Chaos.Seed ^ 0xd1cca4f5a7c15e3d)
	for i := 0; i < o.Requests; i++ {
		at := sim.Time(arrRNG.Int63n(int64(o.Window)))
		platform.Submit(specs[arrRNG.Intn(len(specs))], at)
	}

	if inj != nil {
		if o.SwapLimitPages > 0 {
			inj.ArmSwapSqueezes(eng, platform.Machine(), o.SwapLimitPages, o.SwapSqueezes, o.Window)
		}
		burstRNG := sim.NewRNG(o.Chaos.Seed ^ 0xb0b5f5eedfaceb00)
		inj.ArmBursts(eng, o.Bursts, o.BurstSize, o.Window, func(t sim.Time, k int) {
			platform.Submit(specs[burstRNG.Intn(len(specs))], t)
		})
	}

	eng.RunUntil(sim.Time(o.Window))
	if mgr != nil {
		mgr.Stop()
	}

	res := &Result{
		Platform:    *platform.Stats(),
		Events:      rec.Events(),
		AuditErrors: platform.Machine().Audit(),
		End:         eng.Now(),
	}
	if mgr != nil {
		res.Manager = mgr.Stats()
	}
	if inj != nil {
		res.Faults = inj.Counts()
	}
	return res, nil
}

// Fingerprint renders the result as a stable multi-line string: every
// scalar counter plus an FNV-1a hash over the full event stream. Two
// runs are byte-identical iff their fingerprints are equal, which is
// what the differential and parallel-determinism tests compare.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	p := &r.Platform
	fmt.Fprintf(&b, "requests=%d completions=%d drops=%d coldboots=%d warmstarts=%d evictions=%d oomkills=%d requeues=%d prewarmhits=%d\n",
		p.Requests, p.Completions, p.Drops, p.ColdBoots, p.WarmStarts, p.Evictions, p.OOMKills, p.Requeues, p.PrewarmHits)
	fmt.Fprintf(&b, "cpu_busy=%d reclaim_cpu=%d latency_n=%d", int64(p.CPUBusy), int64(p.ReclaimCPU), p.Latency.Count())
	if p.Latency.Count() > 0 {
		fmt.Fprintf(&b, " latency_mean=%.6f latency_p99=%.6f", p.Latency.Mean(), p.Latency.Percentile(99))
	}
	b.WriteString("\n")
	names := make([]string, 0, len(p.PerFunction))
	for name := range p.PerFunction {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "fn %s n=%d\n", name, p.PerFunction[name].Count())
	}
	m := &r.Manager
	fmt.Fprintf(&b, "mgr checks=%d activations=%d reclamations=%d released=%d swapped=%d skipped=%d failed=%d partial=%d retries=%d swapfallbacks=%d starved=%d\n",
		m.Checks, m.Activations, m.Reclamations, m.ReleasedBytes, m.SwappedBytes,
		m.SkippedThaws, m.FailedReclaims, m.PartialReclaims, m.Retries, m.SwapFallbacks, m.Starved)
	c := &r.Faults
	fmt.Fprintf(&b, "faults thaw=%d fail=%d partial=%d oom=%d freezelost=%d squeeze=%d burst=%d\n",
		c.ThawRaces, c.ReclaimFails, c.PartialReclaims, c.OOMKills, c.FreezeLosses, c.SwapSqueezes, c.Bursts)
	h := fnv.New64a()
	for _, ev := range r.Events {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%d|%d|%d|%g\n",
			int64(ev.Time), ev.Kind, ev.Inst, ev.Invo, ev.Name, int64(ev.Dur), ev.Bytes, ev.Aux, ev.Val)
	}
	fmt.Fprintf(&b, "events=%d hash=%016x\n", len(r.Events), h.Sum64())
	fmt.Fprintf(&b, "audit=%d end=%d\n", len(r.AuditErrors), int64(r.End))
	return b.String()
}
