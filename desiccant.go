// Package desiccant is a simulation-complete reproduction of
// "Characterization and Reclamation of Frozen Garbage in Managed FaaS
// Workloads" (EuroSys '24): a freeze-aware memory manager for managed
// FaaS runtimes, together with every substrate it needs — a simulated
// OS memory layer, HotSpot- and V8-style heap simulators, an
// OpenWhisk-style platform, the paper's 20 workloads, and an
// Azure-style trace generator.
//
// This root package is the facade for downstream users: it wires the
// pieces into a ready-to-run Simulation and re-exports the types
// needed to drive one. The full surface lives in the internal
// packages; see DESIGN.md for the map and EXPERIMENTS.md for the
// paper-versus-measured results.
//
// Quick use:
//
//	sim, err := desiccant.NewSimulation(desiccant.Config{EnableDesiccant: true})
//	if err != nil {
//		log.Fatal(err)
//	}
//	sim.Platform.SubmitName("fft", 0)
//	sim.RunFor(desiccant.Seconds(10))
//	fmt.Println(sim.Platform.Stats().ColdBoots)
package desiccant

import (
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
	"desiccant/internal/workload"
)

// Re-exported building blocks. The aliases make the internal types
// usable from outside the module without duplicating their APIs.
type (
	// Platform is the simulated FaaS platform (see internal/faas).
	Platform = faas.Platform
	// PlatformConfig parameterizes the platform.
	PlatformConfig = faas.Config
	// Manager is the Desiccant memory manager (see internal/core).
	Manager = core.Manager
	// ManagerConfig parameterizes the manager.
	ManagerConfig = core.Config
	// Engine is the discrete-event engine driving a simulation.
	Engine = sim.Engine
	// Time is a point in virtual time (microseconds).
	Time = sim.Time
	// Duration is a span of virtual time (microseconds).
	Duration = sim.Duration
	// FunctionSpec describes one Table 1 workload.
	FunctionSpec = workload.Spec
	// Trace is a synthetic Azure-style production trace.
	Trace = trace.Trace
)

// Platform profile, policy and manager-mode constants, re-exported.
const (
	OpenWhisk     = faas.OpenWhisk
	Lambda        = faas.Lambda
	PolicyVanilla = faas.PolicyVanilla
	PolicyEager   = faas.PolicyEager
	// ModeSwap runs the manager as the §5.6 swapping baseline instead
	// of GC-cooperative reclamation.
	ModeSwap = core.ModeSwap
)

// Seconds converts floating-point seconds to a virtual Duration.
func Seconds(s float64) Duration { return sim.DurationFromSeconds(s) }

// Functions returns the paper's Table 1 workload registry.
func Functions() []*FunctionSpec { return workload.All() }

// ExtraFunctions returns the extension workloads beyond Table 1
// (currently the Python suite running on the CPython-style arena
// runtime of §7).
func ExtraFunctions() []*FunctionSpec { return workload.Extras() }

// LookupFunction returns one Table 1 workload by name.
func LookupFunction(name string) (*FunctionSpec, error) { return workload.Lookup(name) }

// Config assembles a Simulation.
type Config struct {
	// Platform overrides the default platform configuration when
	// non-nil.
	Platform *PlatformConfig
	// EnableDesiccant attaches the memory manager.
	EnableDesiccant bool
	// Manager overrides the default manager configuration when
	// non-nil (implies EnableDesiccant).
	Manager *ManagerConfig
}

// Simulation bundles an engine, a platform, and (optionally) an
// attached Desiccant manager.
type Simulation struct {
	Engine   *Engine
	Platform *Platform
	// Manager is nil unless Desiccant was enabled.
	Manager *Manager
}

// NewSimulation builds a ready-to-run simulation. A platform or manager
// configuration that fails its Validate is an error naming the field,
// and nothing is built.
func NewSimulation(cfg Config) (*Simulation, error) {
	pcfg := faas.DefaultConfig()
	if cfg.Platform != nil {
		pcfg = *cfg.Platform
	}
	mcfg := cfg.Manager
	if mcfg == nil && cfg.EnableDesiccant {
		c := core.DefaultConfig()
		mcfg = &c
	}
	s := &Simulation{Engine: sim.NewEngine()}
	var err error
	s.Platform, s.Manager, err = core.NewMachine(s.Engine, pcfg, mcfg, nil)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulation) RunFor(d Duration) { s.Engine.RunFor(d) }

// RunUntil advances the simulation to the absolute time t.
func (s *Simulation) RunUntil(t Time) { s.Engine.RunUntil(t) }

// Close stops the manager's periodic activity (if any), letting the
// event queue drain.
func (s *Simulation) Close() {
	if s.Manager != nil {
		s.Manager.Stop()
	}
}

// ReplayTrace synthesizes an Azure-style trace with the given seed,
// matches the paper's 20 functions to it, normalizes the total base
// arrival rate, and schedules arrivals over [from, to) at the given
// scale factor. It returns the number of requests scheduled. A
// baseRate or scale that is not positive and finite is an error
// naming the field, and nothing is scheduled.
func (s *Simulation) ReplayTrace(seed uint64, baseRate float64, from, to Time, scale float64) (int, error) {
	syn := trace.Synthetic{Seed: seed, Functions: 2000, BaseRate: baseRate}
	if err := syn.Validate(nil, 0, scale); err != nil {
		return 0, err
	}
	return syn.Replayer(s.Platform, syn.Assignments(nil, 0)).Schedule(from, to, scale), nil
}

// DefaultPlatformConfig returns the paper's platform settings (2 GiB
// cache, 256 MiB instances, 0.14 CPUs each, OpenWhisk profile).
func DefaultPlatformConfig() PlatformConfig { return faas.DefaultConfig() }

// DefaultManagerConfig returns the paper's Desiccant settings (60%
// low threshold, 2 s freeze timeout, throughput-ordered selection,
// libraries unmapped). Reclamation always preserves weakly-referenced
// objects (§4.7); that is not a setting.
func DefaultManagerConfig() ManagerConfig { return core.DefaultConfig() }
