// Package chaos is the simulator's deterministic fault-injection
// layer. An Injector, seeded once, perturbs a run at fixed injection
// points: forced thaw-during-reclaim races, failed and partial
// reclamations, OOM kills of running invocations, delayed or lost
// freeze notifications, swap-device exhaustion, and burst arrival
// spikes. Every decision is a function of the injector's seeded RNG
// streams plus the call arguments — never of wall-clock time or map
// order — so a fixed seed yields a byte-identical fault schedule at
// any parallelism, and every fault a run exhibits can be reproduced
// from its seed alone.
//
// At Intensity zero the injector is a contractual no-op: no fault
// fires, no event is emitted, and a wired run is byte-identical to an
// un-wired one (pinned by TestZeroIntensityIsNoOp).
package chaos

import (
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
)

// Config parameterizes the injector.
type Config struct {
	// Seed drives all of the injector's randomness.
	Seed uint64
	// Intensity in [0,1] scales every fault rate. Zero disables the
	// injector entirely (the differential-robustness contract).
	Intensity float64
}

// The fault mix: a moderately hostile set of rates, each a probability
// at Intensity 1. The effective rate of every fault is rate*Intensity.
const (
	// thawRaceRate forces the §4.2 thaw race on an admitted
	// reclamation candidate at the most adversarial instant (between
	// admission and begin).
	thawRaceRate = 0.15
	// reclaimFailRate fails a completed release phase outright: every
	// released page is re-faulted and the manager's retry path runs.
	reclaimFailRate = 0.15
	// partialReclaimRate makes the runtime return fewer pages than its
	// report promised; partialFraction of the released bytes come back.
	partialReclaimRate = 0.25
	// partialFraction is the share of released bytes re-faulted on a
	// partial reclaim.
	partialFraction = 0.5
	// oomKillRate kills a running invocation partway through its
	// execution (the cgroup OOM killer).
	oomKillRate = 0.03
	// freezeDelayRate delays the sweeper's knowledge of a freeze by up
	// to maxFreezeDelay; freezeLossRate loses the notification
	// entirely (the instance is never visible for that freeze).
	freezeDelayRate = 0.20
	maxFreezeDelay  = 4 * sim.Second
	freezeLossRate  = 0.02
)

// DefaultConfig returns the fault mix at Intensity 1.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, Intensity: 1.0}
}

// Counts tallies the faults actually injected, for assertions and the
// chaos sweep's CSV.
type Counts struct {
	ThawRaces       int64
	ReclaimFails    int64
	PartialReclaims int64
	OOMKills        int64
	FreezeLosses    int64
	SwapSqueezes    int64
	Bursts          int64
}

// freezeKey identifies one freeze episode of one instance, so a lost
// notification is announced exactly once no matter how many sweeps
// consult the candidate.
type freezeKey struct {
	inst     int
	frozenAt sim.Time
}

// Injector implements core.Injector and faas.Injector from one seeded
// plan. Each fault type draws from its own forked RNG stream, so one
// type's schedule never shifts another's.
type Injector struct {
	cfg Config
	bus *obs.Bus // the bound platform's bus; nil until Bind

	thawRNG    *sim.RNG
	reclaimRNG *sim.RNG
	oomRNG     *sim.RNG
	armRNG     *sim.RNG

	// invoOf resolves an instance ID to the invocation executing (or
	// most recently executed) on it, so instance-scoped fault events
	// can name their victim invocation. Nil leaves those events
	// anonymous (Invo 0). Bind wires it to faas.Platform.LastInvoOf.
	invoOf func(instID int) int64

	// lostAnnounced dedups fault.freeze_lost emissions per freeze
	// episode (the underlying verdict is a pure function consulted on
	// every sweep; the event must fire once). Keys are only ever
	// looked up, never iterated, so no map order escapes.
	lostAnnounced map[freezeKey]bool

	counts Counts
}

var (
	_ core.Injector = (*Injector)(nil)
	_ faas.Injector = (*Injector)(nil)
)

// NewInjector builds an injector from cfg. It emits no chaos.fault
// events and names no victim invocations until Bind attaches it to a
// platform.
func NewInjector(cfg Config) *Injector {
	root := sim.NewRNG(cfg.Seed)
	return &Injector{
		cfg:        cfg,
		thawRNG:    root.Fork(1),
		reclaimRNG: root.Fork(2),
		oomRNG:     root.Fork(3),
		armRNG:     root.Fork(4),
	}
}

// Counts returns the faults injected so far.
func (j *Injector) Counts() Counts { return j.counts }

// Bind attaches the injector to the platform it perturbs: chaos.fault
// events go out on the platform's bus, and instance-scoped faults name
// their victim through the platform's census (LastInvoOf). Call it
// before the run starts.
func (j *Injector) Bind(p *faas.Platform) {
	j.bus = p.Events()
	j.invoOf = p.LastInvoOf
}

// victimInvo resolves the invocation to blame for a fault on inst.
func (j *Injector) victimInvo(inst int) int64 {
	if j.invoOf == nil || inst < 0 {
		return 0
	}
	return j.invoOf(inst)
}

// enabled reports whether any fault can fire at all.
func (j *Injector) enabled() bool { return j != nil && j.cfg.Intensity > 0 }

// rate scales a base rate by the intensity.
func (j *Injector) rate(base float64) float64 { return base * j.cfg.Intensity }

// emit publishes one chaos.fault event on the bound platform's bus
// (a no-op before Bind). invo names the victim invocation (0 when the
// fault has none).
func (j *Injector) emit(name string, inst int, invo, bytes, aux int64) {
	j.bus.Emit(obs.Event{Kind: obs.EvFault, Inst: inst, Invo: invo, Name: name, Bytes: bytes, Aux: aux})
}

// ForceThawRace implements core.Injector. The victim invocation is the
// one whose state occupies the instance (the last to execute on it):
// the race is the sweeper losing to that instance's thaw.
func (j *Injector) ForceThawRace(instID int) bool {
	if !j.enabled() || j.thawRNG.Float64() >= j.rate(thawRaceRate) {
		return false
	}
	j.counts.ThawRaces++
	j.emit("fault.thaw_race", instID, j.victimInvo(instID), 0, 0)
	return true
}

// PerturbReclaim implements core.Injector.
func (j *Injector) PerturbReclaim(instID int, released int64) (int64, bool) {
	if !j.enabled() || released <= 0 {
		return 0, false
	}
	draw := j.reclaimRNG.Float64()
	if draw < j.rate(reclaimFailRate) {
		j.counts.ReclaimFails++
		j.emit("fault.reclaim_fail", instID, j.victimInvo(instID), released, 0)
		return released, true
	}
	if draw < j.rate(reclaimFailRate)+j.rate(partialReclaimRate) {
		retake := int64(float64(released) * partialFraction)
		if retake <= 0 {
			return 0, false
		}
		j.counts.PartialReclaims++
		j.emit("fault.partial_reclaim", instID, j.victimInvo(instID), retake, 0)
		return retake, false
	}
	return 0, false
}

// CandidateVisible implements core.Injector. The verdict is a pure
// hash of (seed, instID, frozenAt): consulted once or a hundred times,
// in any order, the answer for one freeze is always the same —
// required, since selection consults it on every sweep.
func (j *Injector) CandidateVisible(instID int, frozenAt, now sim.Time) bool {
	if !j.enabled() {
		return true
	}
	h := sim.NewRNG(j.cfg.Seed ^ 0x9e3779b97f4a7c15 ^ uint64(instID)<<32 ^ uint64(frozenAt))
	if h.Float64() < j.rate(freezeLossRate) {
		// Notification lost: never visible this freeze. Announce the
		// loss once per freeze episode — the verdict itself stays a
		// pure function, consulted any number of times.
		k := freezeKey{inst: instID, frozenAt: frozenAt}
		if !j.lostAnnounced[k] {
			if j.lostAnnounced == nil {
				j.lostAnnounced = make(map[freezeKey]bool)
			}
			j.lostAnnounced[k] = true
			j.counts.FreezeLosses++
			j.emit("fault.freeze_lost", instID, j.victimInvo(instID), 0, 0)
		}
		return false
	}
	if h.Float64() < j.rate(freezeDelayRate) {
		delay := sim.Duration(h.Int63n(int64(maxFreezeDelay)))
		return now.Sub(frozenAt) >= delay
	}
	return true
}

// OOMKillAfter implements faas.Injector. The victim invocation is
// named directly by the platform, so the fault event carries it even
// without an instance lookup.
func (j *Injector) OOMKillAfter(invo int64, instID int, fn string, wall sim.Duration) (sim.Duration, bool) {
	if !j.enabled() || wall <= 0 || j.oomRNG.Float64() >= j.rate(oomKillRate) {
		return 0, false
	}
	at := sim.Duration(j.oomRNG.Int63n(int64(wall)))
	j.counts.OOMKills++
	j.emit("fault.oom_kill", instID, invo, 0, int64(at))
	return at, true
}

// ArmSwapSqueezes schedules n swap-device squeezes over [0, horizon):
// at each drawn instant the device shrinks to a drawn fraction of its
// base capacity, and recovers half a squeeze interval later. All
// draws happen now, so the schedule is fixed before the run starts.
// Like a real swapoff, a squeeze cannot shrink below current
// occupancy: the limit clamps to the pages already on the device, so
// the device reads full (every further swap-out refuses) without the
// occupancy-within-limit invariant ever breaking.
func (j *Injector) ArmSwapSqueezes(eng *sim.Engine, m SwapLimiter, basePages int64, n int, horizon sim.Duration) {
	if !j.enabled() || n <= 0 || horizon <= 0 || basePages <= 0 {
		return
	}
	hold := horizon / sim.Duration(2*n)
	for i := 0; i < n; i++ {
		at := sim.Time(j.armRNG.Int63n(int64(horizon)))
		squeezed := int64(float64(basePages) * (0.05 + 0.20*j.armRNG.Float64()))
		eng.At(at, "chaos:swap-squeeze", func() {
			lim := squeezed
			if occ := m.SwapPages(); occ > lim {
				lim = occ
			}
			j.counts.SwapSqueezes++
			j.emit("fault.swap_squeeze", -1, 0, lim*osmem.PageSize, 0)
			m.SetSwapLimit(lim)
		})
		eng.At(at.Add(hold), "chaos:swap-recover", func() {
			m.SetSwapLimit(basePages)
		})
	}
}

// SwapLimiter is the slice of *osmem.Machine the squeeze scheduler
// needs (an interface so chaos stays mock-testable).
type SwapLimiter interface {
	SetSwapLimit(pages int64)
	SwapPages() int64
}

// ArmBursts schedules n arrival spikes over [0, horizon): at each
// drawn instant, size back-to-back submissions of one drawn function.
// submit is called at arm time zero or later with the spike's instant.
func (j *Injector) ArmBursts(eng *sim.Engine, n, size int, horizon sim.Duration, submit func(t sim.Time, k int)) {
	if !j.enabled() || n <= 0 || size <= 0 || horizon <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		at := sim.Time(j.armRNG.Int63n(int64(horizon)))
		eng.At(at, "chaos:burst", func() {
			j.counts.Bursts++
			j.emit("fault.burst", -1, 0, 0, int64(size))
		})
		for k := 0; k < size; k++ {
			submit(at, k)
		}
	}
}
