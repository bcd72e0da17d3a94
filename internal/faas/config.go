// Package faas simulates the FaaS platform the paper integrates with:
// an OpenWhisk-style controller that routes requests to cached
// instances, freezes instances after execution (docker pause), evicts
// frozen instances under memory pressure, cold-boots new ones, and
// accounts CPU the way an invoker's cgroups do. A Lambda profile
// (§5.4) disables cross-instance library sharing.
package faas

import (
	"fmt"

	"desiccant/internal/sim"
)

// Profile selects the platform flavor.
type Profile int

// Platform profiles evaluated in the paper.
const (
	// OpenWhisk shares runtime libraries across instances of the same
	// language (same host, shared page cache).
	OpenWhisk Profile = iota
	// Lambda gives every instance its own image: no sharing, which
	// makes Desiccant's unmap optimization more effective (§5.4).
	Lambda
)

// Policy is what the platform does at every function exit, before
// freezing the instance.
type Policy int

// Post-execution policies (the paper's baselines). Desiccant is not a
// Policy: it attaches to the platform as a background manager and
// reclaims frozen instances on its own schedule.
const (
	// PolicyVanilla freezes immediately; GC runs only when the runtime
	// decides (the paper's vanilla baseline).
	PolicyVanilla Policy = iota
	// PolicyEager forces a full GC at every exit (the eager baseline).
	// The stock V8 hook performs an aggressive collection — weak
	// references included — which is exactly what §4.7 patches around.
	PolicyEager
)

func (p Policy) String() string {
	switch p {
	case PolicyVanilla:
		return "vanilla"
	case PolicyEager:
		return "eager"
	default:
		return "policy(?)"
	}
}

// Config parameterizes the platform.
type Config struct {
	// Seed drives all platform randomness.
	Seed uint64
	// CacheBytes is the instance cache: the memory pool running
	// instances reserve from and frozen instances occupy with their
	// actual USS (2 GiB in §5.3).
	CacheBytes int64
	// InstanceBudget is the per-instance memory limit (256 MiB).
	InstanceBudget int64
	// CPUs is the total core count available to function execution.
	CPUs float64
	// PerInstanceCPU is the share granted to one running invocation
	// (0.14 per the commercial configurations the paper cites).
	PerInstanceCPU float64
	// ColdBootCPU is the share a cold boot consumes while creating the
	// container and starting the runtime.
	ColdBootCPU float64
	// KeepAlive destroys instances frozen longer than this even
	// without memory pressure.
	KeepAlive sim.Duration
	// Profile selects OpenWhisk or Lambda behavior.
	Profile Profile
	// Policy is the post-execution baseline policy.
	Policy Policy

	// PrewarmPerLanguage keeps up to this many stem-cell containers
	// (booted runtime, no function) per language, OpenWhisk's pre-warm
	// pool. Assigning a stem cell to a request costs prewarmAssign
	// instead of a full cold boot. The paper's §6.1 notes such warm-up
	// policies are orthogonal to Desiccant; this knob lets the
	// extension experiment demonstrate it.
	PrewarmPerLanguage int

	// InvoBase offsets this platform's invocation IDs: requests get
	// IDs InvoBase+1, InvoBase+2, ... in arrival order. Multi-machine
	// runs give each platform a disjoint base (machine d uses d·10⁹)
	// so invocation IDs stay globally unique in merged attribution
	// output. Zero is never a valid invocation ID.
	InvoBase int64

	// Chaos, when non-nil, lets a deterministic fault injector perturb
	// the platform (injected OOM kills). Leaving it nil disables every
	// injection point.
	Chaos Injector

	// Snapshot enables the SnapStart-style alternative the paper's
	// introduction weighs against instance caching: instances are
	// destroyed at exit instead of cached, and every request restores
	// a pre-initialized snapshot. Memory cost per idle function drops
	// to zero, but every invocation pays the restore latency ("the
	// recently released AWS SnapStart takes over 100ms to restore a
	// snapshot", §2.1).
	Snapshot bool
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		CacheBytes:     2 << 30,
		InstanceBudget: 256 << 20,
		CPUs:           20,
		PerInstanceCPU: 0.14,
		ColdBootCPU:    1.0,
		KeepAlive:      10 * sim.Minute,
		Profile:        OpenWhisk,
		Policy:         PolicyVanilla,
	}
}

// Validate reports a configuration New cannot build a platform from:
// a non-positive cache or instance budget, or a CPU pool that cannot
// run one invocation.
func (c Config) Validate() error {
	switch {
	case c.CacheBytes <= 0:
		return fmt.Errorf("faas: CacheBytes must be positive, got %d", c.CacheBytes)
	case c.InstanceBudget <= 0:
		return fmt.Errorf("faas: InstanceBudget must be positive, got %d", c.InstanceBudget)
	case !(c.PerInstanceCPU > 0): // NaN fails the comparison
		return fmt.Errorf("faas: PerInstanceCPU must be positive, got %v", c.PerInstanceCPU)
	case !(c.CPUs >= c.PerInstanceCPU):
		return fmt.Errorf("faas: CPUs %v cannot run one instance at PerInstanceCPU %v", c.CPUs, c.PerInstanceCPU)
	}
	return nil
}
