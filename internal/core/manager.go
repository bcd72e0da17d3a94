package core

import (
	"fmt"
	"math"
	"sort"

	"desiccant/internal/container"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
)

// SelectionPolicy orders reclamation candidates. Throughput is the
// paper's policy; the others exist for the ablation benches.
type SelectionPolicy int

// Selection policies.
const (
	// SelectByThroughput picks the instance with the highest estimated
	// reclamation throughput (§4.5.2).
	SelectByThroughput SelectionPolicy = iota
	// SelectLRU picks the longest-frozen instance.
	SelectLRU
	// SelectRandom picks uniformly at random.
	SelectRandom
)

// Mode chooses the reclamation mechanism.
type Mode int

// Reclamation modes.
const (
	// ModeReclaim is Desiccant: GC-cooperative release (§4.4).
	ModeReclaim Mode = iota
	// ModeSwap is the §5.6 baseline: the OS swaps frozen pages out
	// with no runtime semantics, live data included.
	ModeSwap
)

// Config parameterizes the manager.
type Config struct {
	// LowThreshold is the activation threshold the manager drops to
	// when the platform starts evicting (60% by default, §4.5.1).
	LowThreshold float64
	// HighThreshold caps the threshold's upward drift.
	HighThreshold float64
	// FreezeTimeout excludes instances frozen more recently than this
	// (§4.3's first principle).
	FreezeTimeout sim.Duration
	// MaxConcurrent bounds how many reclamations run at once; each
	// holds its own idle-CPU grant.
	MaxConcurrent int
	// UnmapLibraries enables the §4.6 shared-library optimization.
	UnmapLibraries bool
	// Selection orders candidates.
	Selection SelectionPolicy
	// Mode selects GC-cooperative reclaim or the swapping baseline.
	Mode Mode
	// Seed drives the manager's randomness (SelectRandom).
	Seed uint64
	// ActivateOnIdleCPU, when positive, additionally activates the
	// manager whenever at least this many cores are idle — the §4.2
	// future-work policy ("activating memory reclamation when idle
	// computation resources are available"). Idle sweeps reclaim down
	// to half the low threshold instead of the dynamic threshold.
	ActivateOnIdleCPU float64

	// Injector, when non-nil, lets a deterministic fault injector
	// perturb the sweeper: forced thaw races, failed/partial reclaims,
	// and delayed/lost freeze notifications. Nil disables every
	// injection point.
	Injector Injector
}

// The manager's fixed settings. Reclamation always preserves
// weakly-referenced objects (§4.7).
const (
	// checkInterval is how often the activation condition is polled.
	checkInterval = 500 * sim.Millisecond
	// thresholdStep is the threshold's upward drift per quiet
	// interval.
	thresholdStep = 0.02
	// reclaimCPU is the idle-CPU share requested per reclamation.
	reclaimCPU = 1.0
	// maxReclaimRetries bounds the retry chain after an injected
	// reclamation failure.
	maxReclaimRetries = 2
	// retryBackoff is the base sim-time backoff between retries; the
	// n-th retry of an instance waits n*retryBackoff.
	retryBackoff = 250 * sim.Millisecond
)

// Injector is the hook the chaos layer implements to perturb the
// manager (Config.Injector). Implementations must be deterministic
// functions of their seeded state plus the call arguments.
type Injector interface {
	// ForceThawRace reports whether the admitted candidate should be
	// treated as thawed between admission and reclaim begin — the §4.2
	// race forced at its most adversarial instant. The manager takes
	// its normal skip path.
	ForceThawRace(instID int) bool
	// PerturbReclaim is consulted after a reclamation's release phase
	// with the bytes released. retake asks the manager to re-fault that
	// many bytes back (a runtime that returned fewer pages than its
	// report promised); fail marks the whole reclamation failed, which
	// re-faults everything and triggers the bounded retry path.
	PerturbReclaim(instID int, released int64) (retake int64, fail bool)
	// CandidateVisible reports whether the sweeper has learned of the
	// instance's freeze yet — false models a delayed or lost freeze
	// notification. It must be a pure function of (instID, frozenAt,
	// now) so selection order cannot change the fault schedule.
	CandidateVisible(instID int, frozenAt, now sim.Time) bool
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		LowThreshold:   0.60,
		HighThreshold:  0.90,
		FreezeTimeout:  2 * sim.Second,
		MaxConcurrent:  4,
		UnmapLibraries: true,
		Selection:      SelectByThroughput,
		Mode:           ModeReclaim,
		Seed:           7,
	}
}

// Validate reports the first setting the manager cannot run with,
// naming its field: a threshold outside [0,1] or NaN, a low threshold
// above the high one, no reclamation slot, a negative freeze timeout,
// or an idle-CPU trigger that is negative, NaN or infinite.
func (c Config) Validate() error {
	switch {
	case !(c.LowThreshold >= 0 && c.LowThreshold <= 1): // NaN fails both comparisons
		return fmt.Errorf("core: LowThreshold must be in [0,1], got %v", c.LowThreshold)
	case !(c.HighThreshold >= 0 && c.HighThreshold <= 1):
		return fmt.Errorf("core: HighThreshold must be in [0,1], got %v", c.HighThreshold)
	case c.LowThreshold > c.HighThreshold:
		return fmt.Errorf("core: LowThreshold %v exceeds HighThreshold %v", c.LowThreshold, c.HighThreshold)
	case c.MaxConcurrent < 1:
		return fmt.Errorf("core: MaxConcurrent must be >= 1, got %d", c.MaxConcurrent)
	case c.FreezeTimeout < 0:
		return fmt.Errorf("core: FreezeTimeout must be >= 0, got %v", c.FreezeTimeout)
	case !(c.ActivateOnIdleCPU >= 0) || math.IsInf(c.ActivateOnIdleCPU, 1):
		return fmt.Errorf("core: ActivateOnIdleCPU must be finite and >= 0, got %v", c.ActivateOnIdleCPU)
	}
	return nil
}

// Stats counts the manager's activity.
type Stats struct {
	Checks      int64
	Activations int64
	// IdleActivations counts activations triggered by the idle-CPU
	// policy rather than the memory threshold.
	IdleActivations int64
	Reclamations    int64
	ReleasedBytes   int64
	SwappedBytes    int64
	CPUTime         sim.Duration
	Starved         int64 // reclamations deferred for lack of idle CPU
	// SkippedThaws counts selected candidates that were thawed (or
	// evicted) by the platform before the reclamation could begin —
	// §4.2's uncoordinated race, resolved in the instance's favor.
	SkippedThaws int64
	// FailedReclaims counts reclamations whose release phase failed
	// (injected): the pages came back and a retry was considered.
	FailedReclaims int64
	// PartialReclaims counts reclamations that released fewer bytes
	// than the runtime's report promised (injected).
	PartialReclaims int64
	// Retries counts retry reclamations actually scheduled.
	Retries int64
	// SwapFallbacks counts ModeSwap reclamations that fell back to
	// GC-cooperative release because the swap device was full.
	SwapFallbacks int64
}

// Manager is the Desiccant background sweeper attached to a platform.
type Manager struct {
	cfg      Config
	platform *faas.Platform
	eng      *sim.Engine
	rng      *sim.RNG
	bus      *obs.Bus // the platform's bus, subscribed to in Start

	threshold     float64
	idleSweep     bool
	evictionsSeen int
	// Per-instance state, keyed by instance ID and dropped when the
	// platform evicts or destroys the instance (handleEvent).
	profiles       *profileDB
	lastReclaim    map[int]sim.Time
	retries        map[int]int
	reclaimsActive int
	stats          Stats
	checkEvent     *sim.Event
	stopped        bool
	// candidates is selectCandidate's scratch list, reused across picks
	// and cleared after each so it pins no dead instance.
	candidates []*container.Instance
}

// Observer hooks into a machine once its platform and (unstarted)
// manager exist; it reaches the engine and the event bus through
// p.Engine() and p.Events(). mgr is nil on a machine without a
// manager.
type Observer func(p *faas.Platform, mgr *Manager)

// NewMachine builds one machine on eng, the only place a platform and
// its manager are wired. The order is fixed: the platform, the manager
// (mcfg nil: none), observe, and only then the manager's Start, so
// every subscriber observe attaches sees the manager's initial
// threshold event and precedes the manager on the bus. A platform or
// manager configuration that fails its Validate is returned as an
// error before anything is built.
func NewMachine(eng *sim.Engine, pcfg faas.Config, mcfg *Config, observe Observer) (*faas.Platform, *Manager, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, nil, err
	}
	if mcfg != nil {
		if err := mcfg.Validate(); err != nil {
			return nil, nil, err
		}
	}
	p := faas.New(pcfg, eng)
	var m *Manager
	if mcfg != nil {
		m = New(p, *mcfg)
	}
	if observe != nil {
		observe(p, m)
	}
	if m != nil {
		m.Start()
	}
	return p, m, nil
}

// New creates a manager for the platform without starting it: nothing
// is emitted, subscribed or scheduled until Start. NewMachine calls it.
func New(p *faas.Platform, cfg Config) *Manager {
	return &Manager{
		cfg:         cfg,
		platform:    p,
		eng:         p.Engine(),
		bus:         p.Events(),
		rng:         sim.NewRNG(cfg.Seed),
		threshold:   cfg.HighThreshold,
		profiles:    newProfileDB(),
		lastReclaim: make(map[int]sim.Time),
		retries:     make(map[int]int),
	}
}

// Start announces the initial threshold, subscribes the manager to the
// platform's bus, and schedules its periodic activation check.
func (m *Manager) Start() {
	m.bus.Emit(obs.Event{Kind: obs.EvThreshold, Inst: -1, Val: m.threshold})
	m.bus.Subscribe(obs.SubscriberFunc(m.handleEvent))
	m.scheduleCheck()
}

// handleEvent is everything the manager learns from the platform. A
// pressure eviction is the §4.5.1 signal that drops the threshold; an
// instance leaving the machine, evicted for any reason or destroyed,
// abandons its per-instance state (§4.5.2).
func (m *Manager) handleEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.EvEvict:
		if ev.Aux == obs.EvictPressure {
			m.evictionsSeen++
		}
	case obs.EvDestroy:
	default:
		return
	}
	m.profiles.forget(ev.Inst)
	delete(m.lastReclaim, ev.Inst)
	delete(m.retries, ev.Inst)
}

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// ActiveReclaims reports reclamations currently in flight (admitted
// but not yet settled). The invariant checker holds this within
// [0, MaxConcurrent] and consistent with the instances' Reclaiming
// flags.
func (m *Manager) ActiveReclaims() int { return m.reclaimsActive }

// Threshold returns the current activation threshold.
func (m *Manager) Threshold() float64 { return m.threshold }

// Stop cancels the periodic check (used by tests and finite runs).
func (m *Manager) Stop() {
	m.stopped = true
	m.checkEvent.Cancel()
}

func (m *Manager) scheduleCheck() {
	if m.stopped {
		return
	}
	m.checkEvent = m.eng.After(checkInterval, "desiccant:check", func() {
		m.check()
		m.scheduleCheck()
	})
}

// check runs the §4.5.1 dynamic-threshold activation policy.
func (m *Manager) check() {
	m.stats.Checks++
	prev := m.threshold
	if m.evictionsSeen > 0 {
		// The platform started evicting: memory is genuinely scarce.
		m.threshold = m.cfg.LowThreshold
		m.evictionsSeen = 0
	} else if m.threshold < m.cfg.HighThreshold {
		m.threshold = minF(m.threshold+thresholdStep, m.cfg.HighThreshold)
	}
	if m.threshold != prev {
		m.bus.Emit(obs.Event{Kind: obs.EvThreshold, Inst: -1, Val: m.threshold})
	}
	if m.platform.MemoryUsedFraction() > m.threshold {
		m.stats.Activations++
		m.idleSweep = false
		m.noteActivation(0)
		m.reclaimLoop()
		return
	}
	// Idle-resource activation (§4.2's future-work policy): with
	// plenty of idle CPU and a non-trivially occupied cache, sweep
	// opportunistically below the normal threshold.
	if m.cfg.ActivateOnIdleCPU > 0 &&
		m.platform.IdleCPU() >= m.cfg.ActivateOnIdleCPU &&
		m.platform.MemoryUsedFraction() > m.idleFloor() {
		m.stats.Activations++
		m.stats.IdleActivations++
		m.idleSweep = true
		m.noteActivation(1)
		m.reclaimLoop()
	}
}

// noteActivation records an activation on the bus; idle is 1 for the
// idle-CPU policy, 0 for the memory threshold.
func (m *Manager) noteActivation(idle int64) {
	m.bus.Emit(obs.Event{
		Kind: obs.EvActivation, Inst: -1, Aux: idle,
		Val: m.platform.MemoryUsedFraction(),
	})
}

// idleFloor is the occupancy below which idle sweeps stop.
func (m *Manager) idleFloor() float64 { return m.cfg.LowThreshold / 2 }

// targetFraction is the occupancy the current activation reclaims
// down to.
func (m *Manager) targetFraction() float64 {
	if m.idleSweep {
		return m.idleFloor()
	}
	return m.threshold
}

// reclaimLoop reclaims the best candidates — up to MaxConcurrent at a
// time, each on its own idle-CPU grant — and, as each reclamation's
// CPU time elapses, re-evaluates, continuing until usage drops below
// the threshold or candidates run out.
func (m *Manager) reclaimLoop() {
	if m.stopped {
		return
	}
	for m.reclaimsActive < max(m.cfg.MaxConcurrent, 1) {
		if !m.reclaimOne() {
			return
		}
	}
}

// reclaimOne selects a candidate and acquires the resources for one
// reclamation, reporting whether one was admitted. The reclamation
// itself starts in a separate same-instant event: per §4.2 the
// platform does not coordinate with the sweeper, so between selection
// and begin the router may thaw (or the platform evict) the chosen
// instance — reclaimBegin detects that and skips with a warning.
func (m *Manager) reclaimOne() bool {
	if m.platform.MemoryUsedFraction() <= m.targetFraction() {
		return false
	}
	inst := m.selectCandidate()
	if inst == nil {
		return false
	}
	share := m.platform.TryAcquireIdleCPU(reclaimCPU)
	if share <= 0 {
		m.stats.Starved++
		return false // no idle CPU: try again at the next check
	}
	m.reclaimsActive++
	inst.Reclaiming = true
	m.eng.At(m.eng.Now(), "desiccant:reclaim-begin", func() {
		m.reclaimBegin(inst, share)
	})
	return true
}

// reclaimBegin re-validates an admitted candidate and runs the
// reclamation. Begin events fire in admission order at the admitting
// instant, so each sees the memory freed by the ones before it.
func (m *Manager) reclaimBegin(inst *container.Instance, share float64) {
	abort := func() {
		inst.Reclaiming = false
		m.reclaimsActive--
		m.platform.ReleaseIdleCPU(share)
	}
	if m.stopped {
		abort()
		return
	}
	forcedRace := m.cfg.Injector != nil && m.cfg.Injector.ForceThawRace(inst.ID)
	if forcedRace || inst.Status() != container.Frozen || !m.platform.IsCached(inst) {
		// The race went the instance's way: it was thawed for a new
		// invocation (or evicted) before reclamation could begin —
		// either genuinely or forced at this adversarial instant by the
		// chaos layer. Warn on the bus and look for a replacement
		// candidate.
		m.stats.SkippedThaws++
		m.bus.Emit(obs.Event{
			Kind: obs.EvReclaimSkipped, Inst: inst.ID, Name: inst.Spec.Name,
		})
		abort()
		m.reclaimLoop()
		return
	}
	if m.platform.MemoryUsedFraction() <= m.targetFraction() {
		// Earlier same-instant reclamations already got usage below
		// target; hand the grant back without reclaiming.
		abort()
		return
	}
	now := m.eng.Now()
	m.lastReclaim[inst.ID] = now
	m.bus.Emit(obs.Event{
		Kind: obs.EvReclaimBegin, Inst: inst.ID, Name: inst.Spec.Name,
	})

	var cpu sim.Duration
	var released, swapped int64
	switch m.cfg.Mode {
	case ModeReclaim:
		rep := inst.Reclaim(false /* keep weak refs */, m.cfg.UnmapLibraries && m.unmapSafe(inst))
		cpu = rep.CPUCost
		released = rep.ReleasedBytes
		// The runtime's memory profile plus the platform's CPU profile
		// feed the estimator (Figure 6's workflow). Recorded before any
		// injected perturbation: the runtime's own report was truthful.
		m.profiles.record(inst, rep.LiveBytes, rep.CPUCost)
		released = m.perturbReclaim(inst, released)
		m.stats.ReleasedBytes += released
	case ModeSwap:
		// The swapping baseline pushes out as many bytes as Desiccant
		// would have released, without any liveness knowledge. Heap
		// memory must be observed before SwapOutHeap pushes pages out:
		// the post-swap residue is not "live bytes", and recording it
		// would corrupt the §4.5.2 estimator's fallback chain.
		estLive, _ := m.profiles.estimate(inst)
		heapBefore := m.heapMemory(inst)
		target := max(heapBefore-estLive, 0)
		if target == 0 {
			target = heapBefore
		}
		swapped = inst.SwapOutHeap(target)
		m.stats.SwappedBytes += swapped
		m.bus.Emit(obs.Event{
			Kind: obs.EvSwapOut, Inst: inst.ID, Name: inst.Spec.Name,
			Bytes: swapped,
		})
		// Swapping costs roughly 2µs/page of write-back, charged for
		// the pages that actually reached the device.
		cpu = sim.Duration(swapped/4096) * 2 * sim.Microsecond
		if swapped < target && m.platform.Machine().SwapFull() {
			// Swap device exhausted mid-swap-out: degrade gracefully to
			// GC-cooperative release for the remainder instead of
			// leaving the instance half-handled.
			m.stats.SwapFallbacks++
			m.bus.Emit(obs.Event{
				Kind: obs.EvSwapFallback, Inst: inst.ID, Name: inst.Spec.Name,
				Bytes: target - swapped,
			})
			rep := inst.Reclaim(false /* keep weak refs */, m.cfg.UnmapLibraries && m.unmapSafe(inst))
			released = rep.ReleasedBytes
			m.stats.ReleasedBytes += released
			cpu += rep.CPUCost
		}
		m.profiles.record(inst, heapBefore, cpu)
	}

	// Account the CPU the way §4.5.2 prescribes: the reclamation holds
	// its granted share for cpu/share wall time, so it is charged that
	// wall time scaled by the share. The share never changes while a
	// reclamation runs, so one multiplication settles it.
	wall := sim.WorkDuration(cpu, share)
	m.stats.Reclamations++
	m.eng.After(wall, "desiccant:reclaim-done", func() {
		got := sim.Duration(float64(m.eng.Now().Sub(now))*share + 0.5)
		m.stats.CPUTime += got
		m.platform.AddReclaimCPU(got)
		m.platform.ReleaseIdleCPU(share)
		inst.Reclaiming = false
		m.reclaimsActive--
		m.bus.Emit(obs.Event{
			Kind: obs.EvReclaimEnd, Inst: inst.ID, Name: inst.Spec.Name,
			Dur: wall, Bytes: released, Aux: swapped,
		})
		// A stopped manager still settles the in-flight accounting
		// above, but must not start new reclamations.
		if m.stopped {
			return
		}
		m.reclaimLoop()
	})
}

// perturbReclaim applies the injector's verdict to one completed
// release phase and returns the bytes that stayed released. A failed
// reclamation re-faults everything and enters the bounded-retry path;
// a partial one re-faults only what the injector asked for. Either
// way the perturbation is physical (pages re-faulted through the
// normal path), so machine-wide accounting stays conserved.
func (m *Manager) perturbReclaim(inst *container.Instance, released int64) int64 {
	if m.cfg.Injector == nil {
		return released
	}
	retake, fail := m.cfg.Injector.PerturbReclaim(inst.ID, released)
	if !fail && retake <= 0 {
		delete(m.retries, inst.ID) // clean success resets the retry chain
		return released
	}
	if fail {
		retake = released
	}
	got := inst.RetouchHeap(min(retake, released))
	released -= got
	if !fail {
		m.stats.PartialReclaims++
		return released
	}
	m.stats.FailedReclaims++
	// The instance still holds its garbage: forget the begin stamp so
	// selection may pick it again, and retry with sim-time backoff.
	delete(m.lastReclaim, inst.ID)
	attempt := m.retries[inst.ID] + 1
	m.retries[inst.ID] = attempt
	if attempt <= maxReclaimRetries {
		m.scheduleRetry(inst, attempt)
	}
	return released
}

// scheduleRetry arranges one bounded retry of a failed reclamation,
// attempt*retryBackoff in the future. The retry re-validates the
// candidate and re-acquires resources exactly like a fresh admission.
func (m *Manager) scheduleRetry(inst *container.Instance, attempt int) {
	backoff := retryBackoff * sim.Duration(attempt)
	m.stats.Retries++
	m.bus.Emit(obs.Event{
		Kind: obs.EvReclaimRetry, Inst: inst.ID, Name: inst.Spec.Name,
		Aux: int64(attempt), Dur: backoff,
	})
	m.eng.After(backoff, "desiccant:reclaim-retry", func() {
		if m.stopped || inst.Reclaiming ||
			inst.Status() != container.Frozen || !m.platform.IsCached(inst) {
			return
		}
		if m.reclaimsActive >= max(m.cfg.MaxConcurrent, 1) {
			return // the ordinary loop is saturated; it will get there
		}
		share := m.platform.TryAcquireIdleCPU(reclaimCPU)
		if share <= 0 {
			m.stats.Starved++
			return
		}
		m.reclaimsActive++
		inst.Reclaiming = true
		m.reclaimBegin(inst, share)
	})
}

// unmapSafe applies §4.6's condition: only unmap libraries when this
// frozen instance is their sole user. The per-region sharing check
// happens inside Instance.Reclaim; here the manager merely confirms
// the instance is frozen (running instances are never candidates).
func (m *Manager) unmapSafe(inst *container.Instance) bool {
	return inst.Status() == container.Frozen
}

// heapMemory observes the instance's in-heap physical consumption the
// way §4.5.2 describes: V8 exposes its own counters; for HotSpot the
// platform uses pmap over the heap's (fixed) address range.
func (m *Manager) heapMemory(inst *container.Instance) int64 {
	if inst.Spec.Language == runtime.JavaScript {
		return inst.Runtime.HeapCommitted()
	}
	return inst.HeapMemory()
}

// selectCandidate picks the next instance to reclaim.
func (m *Manager) selectCandidate() *container.Instance {
	now := m.eng.Now()
	m.candidates = m.platform.AppendCached(m.candidates[:0])
	defer clear(m.candidates)
	// Filter in place: the write index never passes the read index.
	candidates := m.candidates[:0]
	for _, inst := range m.candidates {
		if inst.Reclaiming || inst.Status() != container.Frozen {
			continue
		}
		if inst.FrozenFor(now) < m.cfg.FreezeTimeout {
			continue
		}
		// A delayed or lost freeze notification hides the instance from
		// the sweeper (injected): it stays cached and untouched.
		if m.cfg.Injector != nil && !m.cfg.Injector.CandidateVisible(inst.ID, inst.FrozenAt(), now) {
			continue
		}
		// Nothing left to reclaim if it has not run since the last
		// reclamation.
		if last, ok := m.lastReclaim[inst.ID]; ok && last >= inst.FrozenAt() {
			continue
		}
		candidates = append(candidates, inst)
	}
	if len(candidates) == 0 {
		return nil
	}
	switch m.cfg.Selection {
	case SelectLRU:
		sort.Slice(candidates, func(i, j int) bool {
			return candidates[i].FrozenAt() < candidates[j].FrozenAt()
		})
		return candidates[0]
	case SelectRandom:
		return candidates[m.rng.Intn(len(candidates))]
	default:
		best := candidates[0]
		bestT := m.estimatedThroughput(best)
		for _, c := range candidates[1:] {
			if t := m.estimatedThroughput(c); t > bestT {
				best, bestT = c, t
			}
		}
		return best
	}
}

// estimatedThroughput is the §4.5.2 formula:
// (heap memory − estimated live bytes) / estimated CPU time.
func (m *Manager) estimatedThroughput(inst *container.Instance) float64 {
	estLive, estCPU := m.profiles.estimate(inst)
	if estCPU <= 0 {
		estCPU = defaultCPUEstimate
	}
	return float64(m.heapMemory(inst)-estLive) / float64(estCPU)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
