// Package container models FaaS instances: a container holding one
// managed runtime process — its address space, the runtime's shared
// libraries, non-heap memory, and the freeze/thaw state machine the
// platform drives (docker pause/unpause in OpenWhisk's case).
package container

import (
	"fmt"

	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"

	// Register the runtime implementations: the two the paper
	// evaluates plus the §7 extension runtimes.
	_ "desiccant/internal/g1gc"
	_ "desiccant/internal/hotspot"
	_ "desiccant/internal/pyarena"
	_ "desiccant/internal/v8heap"
)

// Status is the instance lifecycle state.
type Status int

// Lifecycle states. An instance is created Idle, alternates between
// Running and Frozen, and ends Dead when the platform evicts it.
const (
	Idle Status = iota
	Running
	Frozen
	Dead
)

func (s Status) String() string {
	switch s {
	case Idle:
		return "idle"
	case Running:
		return "running"
	case Frozen:
		return "frozen"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// LibrarySpec describes one runtime shared library image.
type LibrarySpec struct {
	// Name of the file (e.g. "libjvm.so"). When libraries are shared
	// (OpenWhisk), instances of the same language map the same file
	// object and their resident pages amortize; when not (Lambda's
	// per-function images), each instance maps a private copy.
	Name string
	// Bytes is the file size.
	Bytes int64
	// TouchedFraction is how much of the file the runtime actually
	// reads at startup.
	TouchedFraction float64
}

// librariesFor returns the library set for a language, sized after the
// real runtimes (libjvm.so ≈ 18 MiB; the node binary ≈ 42 MiB).
func librariesFor(lang runtime.Language) []LibrarySpec {
	switch lang {
	case runtime.Java:
		return []LibrarySpec{
			{Name: "libjvm.so", Bytes: 18 << 20, TouchedFraction: 0.65},
			{Name: "libjava-extras.so", Bytes: 6 << 20, TouchedFraction: 0.50},
		}
	case runtime.JavaScript:
		return []LibrarySpec{
			{Name: "node", Bytes: 42 << 20, TouchedFraction: 0.55},
			{Name: "node-modules.bin", Bytes: 8 << 20, TouchedFraction: 0.40},
		}
	case workload.Python:
		return []LibrarySpec{
			{Name: "libpython3.so", Bytes: 24 << 20, TouchedFraction: 0.55},
			{Name: "site-packages.bin", Bytes: 12 << 20, TouchedFraction: 0.35},
		}
	default:
		panic(fmt.Sprintf("container: no libraries for language %q", lang))
	}
}

// Instance is one FaaS instance.
type Instance struct {
	ID      int
	Spec    *workload.Spec
	Stage   int
	Runtime runtime.Runtime
	AS      *osmem.AddressSpace
	State   *workload.State

	status   Status
	frozenAt sim.Time
	lastUsed sim.Time

	// Reclaiming marks an in-flight Desiccant reclamation; the router
	// skips such instances.
	Reclaiming bool

	// invoCell is the current-invocation tag shared with the runtime's
	// GC observer: the platform writes the invocation ID here around
	// each body execution, and GC/heap events emitted meanwhile carry
	// it. It is a shared cell (not a plain field) because a stem cell's
	// observer is built before the Instance exists and survives
	// Assign. lastInvo remembers the most recent non-zero tag so fault
	// injection can name a victim after the tag is cleared.
	invoCell *int64
	lastInvo int64

	libRegions []*osmem.Region
	nonheap    *osmem.Region
}

// Options carries the knobs New needs beyond the machine and identity.
type Options struct {
	// MemoryBudget is the per-instance memory limit (256 MiB default).
	MemoryBudget int64
	// ShareLibraries selects the OpenWhisk model (true: library files
	// shared across instances of a language) or the Lambda model
	// (false: every instance ships its own image, §5.4).
	ShareLibraries bool
	// RuntimeName overrides the language's default runtime (e.g. "g1"
	// instead of "hotspot-serial" for Java — the §7 G1 port).
	RuntimeName string
	// Events, when non-nil, wires the instance's runtime into the
	// observability bus: GC pauses, heap resizes, and page releases
	// are emitted tagged with the instance ID.
	Events *obs.Bus
}

// New creates an instance of one stage of the given function: address
// space, mapped libraries (touched as the runtime would at startup),
// non-heap memory, the language runtime, and fresh workload state.
func New(machine *osmem.Machine, id int, spec *workload.Spec, stage int, now sim.Time, opts Options) (*Instance, error) {
	label := fmt.Sprintf("%s[%d]#%d", spec.Name, stage, id)
	as := machine.NewAddressSpace(label)
	inst := &Instance{
		ID: id, Spec: spec, Stage: stage, AS: as,
		status: Idle, lastUsed: now,
		invoCell: new(int64),
	}

	inst.libRegions = mapLibraries(machine, as, spec.Language, opts.ShareLibraries, "", id)

	inst.nonheap = as.MmapAnon("nonheap", spec.NonHeapBytes)
	inst.nonheap.Touch(0, inst.nonheap.Pages(), true)

	rtName := opts.RuntimeName
	if rtName == "" {
		rtName = workload.RuntimeFor(spec.Language)
	}
	rt, err := newRuntime(machine, as, rtName, opts, id, spec.Name, inst.invoCell)
	if err != nil {
		return nil, err
	}
	inst.Runtime = rt
	inst.State = workload.NewState(spec, stage, inst.Runtime.Objects())
	// Startup faults (library + non-heap touch) are part of the cold
	// boot, not of the first invocation.
	as.DrainFaultCost()
	return inst, nil
}

// mapLibraries maps lang's libraries into as and touches the part the
// runtime reads at startup. Unshared libraries are per-instance image
// copies (the Lambda model), named apart by prefix and id.
func mapLibraries(machine *osmem.Machine, as *osmem.AddressSpace, lang runtime.Language, share bool, prefix string, id int) []*osmem.Region {
	var regions []*osmem.Region
	for _, lib := range librariesFor(lang) {
		name := lib.Name
		if !share {
			name = fmt.Sprintf("%s@%s%d", lib.Name, prefix, id)
		}
		f := machine.File(name, lib.Bytes)
		r := as.MmapFile(name, f, 0, f.Pages)
		if touched := int64(float64(r.Pages()) * lib.TouchedFraction); touched > 0 {
			r.Touch(0, touched, false)
		}
		regions = append(regions, r)
	}
	return regions
}

// newRuntime builds the named runtime inside as, wired to opts.Events
// (when set) under instance id and name with invocation tag cell invo.
// On failure it destroys as.
func newRuntime(machine *osmem.Machine, as *osmem.AddressSpace, rtName string, opts Options, id int, name string, invo *int64) (runtime.Runtime, error) {
	rcfg := runtime.Config{
		AddressSpace: as,
		MemoryBudget: opts.MemoryBudget,
	}
	if opts.Events != nil {
		rcfg.Observer = obs.RuntimeObserver(opts.Events, id, name, invo)
	}
	rt, err := runtime.New(rtName, rcfg)
	if err != nil {
		machine.Destroy(as)
		return nil, err
	}
	return rt, nil
}

// SetCurrentInvo tags the instance with the invocation executing on it
// (0 clears the tag): runtime events emitted while the tag is set carry
// the invocation ID, so GC pauses inside a body execution attribute to
// it while post-freeze or policy GC stays anonymous. The cell write is
// the whole cost, keeping the warm invocation path allocation-free.
func (i *Instance) SetCurrentInvo(id int64) {
	if i.invoCell != nil {
		*i.invoCell = id
	}
	if id != 0 {
		i.lastInvo = id
	}
}

// LastInvo reports the most recent invocation that executed (or is
// executing) on the instance, 0 if none ever did. Fault injection uses
// it to name the victim of an instance-scoped fault.
func (i *Instance) LastInvo() int64 { return i.lastInvo }

// Status returns the current lifecycle state.
func (i *Instance) Status() Status { return i.status }

// FrozenAt returns when the instance was last frozen (meaningful only
// while Frozen).
func (i *Instance) FrozenAt() sim.Time { return i.frozenAt }

// LastUsed returns when the instance last finished an invocation.
func (i *Instance) LastUsed() sim.Time { return i.lastUsed }

// FrozenFor returns how long the instance has been frozen.
func (i *Instance) FrozenFor(now sim.Time) sim.Duration {
	if i.status != Frozen {
		return 0
	}
	return now.Sub(i.frozenAt)
}

// BeginRun transitions the instance to Running. Thawing a frozen
// instance is a warm start; the platform charges the unpause cost.
func (i *Instance) BeginRun(now sim.Time) {
	if i.status == Dead {
		panic("container: BeginRun on dead instance " + i.AS.Label())
	}
	i.status = Running
	i.lastUsed = now
}

// Freeze pauses the instance (docker pause): all threads stop; the
// runtime gets no further chance to collect until thawed.
func (i *Instance) Freeze(now sim.Time) {
	if i.status == Dead {
		panic("container: Freeze on dead instance")
	}
	i.status = Frozen
	i.frozenAt = now
	i.lastUsed = now
}

// Kill marks the instance dead. The caller must also Destroy the
// address space via the machine and Release the runtime (the
// platform's destroy does all three).
func (i *Instance) Kill() { i.status = Dead }

// USS returns the instance's unique set size — the paper's primary
// per-instance memory metric.
func (i *Instance) USS() int64 { return i.AS.USS() }

// Usage returns the full smaps-style accounting.
func (i *Instance) Usage() osmem.Usage { return i.AS.Usage() }

// HeapMemory reports the in-heap physical consumption the way
// Desiccant observes it (§4.5.2): pmap over the reported heap range
// for HotSpot-style runtimes; the runtime's own counters are
// equivalent for V8.
func (i *Instance) HeapMemory() int64 {
	va, length := i.Runtime.HeapRange()
	return i.AS.PmapRange(va, length)
}

// InvokeBody runs one body execution of the instance's stage,
// returning the workload report plus the GC CPU cost and page-fault
// cost incurred.
func (i *Instance) InvokeBody(rng *sim.RNG) (workload.BodyReport, sim.Duration, sim.Duration, error) {
	if i.status != Running {
		panic("container: InvokeBody on " + i.status.String() + " instance")
	}
	rep, err := i.State.RunBody(i.Runtime, rng)
	gc := i.Runtime.DrainGCCost()
	faults := sim.Duration(i.AS.DrainFaultCost()) * sim.Microsecond
	return rep, gc, faults, err
}

// Hydrate replays a snapshot restore: the instance silently performs
// one initialization pass and a reclamation, leaving exactly the
// pre-initialized live state a SnapStart-style restore would map in.
// The work is not charged to anyone — it stands in for the snapshot
// image that was produced once, offline.
func (i *Instance) Hydrate(now sim.Time, rng *sim.RNG) error {
	i.BeginRun(now)
	if _, err := i.State.RunBody(i.Runtime, rng); err != nil {
		return err
	}
	i.State.ReleaseIntermediates()
	i.Runtime.Reclaim(false)
	i.Runtime.DrainGCCost()
	i.AS.DrainFaultCost()
	i.status = Idle
	return nil
}

// Reclaim drives the runtime's reclaim interface and applies the
// shared-library unmap optimization when enabled: libraries resident
// only in this instance are dropped (re-readable from disk).
func (i *Instance) Reclaim(aggressive, unmapPrivateLibs bool) runtime.ReclaimReport {
	rep := i.Runtime.Reclaim(aggressive)
	if unmapPrivateLibs {
		for _, r := range i.libRegions {
			if !r.SharesResidentPages() {
				rep.ReleasedBytes += r.ReleaseClean()
			}
		}
	}
	// Unmap work is charged to reclamation, not to the next invocation.
	i.AS.DrainFaultCost()
	return rep
}

// SwapOutHeap swaps out up to budget bytes of the instance's
// anonymous memory — heap region first, then other anonymous
// mappings — bottom-up and without any liveness knowledge: the §5.6
// swapping baseline. Returns the bytes actually swapped.
func (i *Instance) SwapOutHeap(budget int64) int64 {
	heapVA, heapLen := i.Runtime.HeapRange()
	regions := i.AS.Regions()
	ordered := make([]*osmem.Region, 0, len(regions))
	for _, r := range regions {
		if r.Kind == osmem.Anon && r.VA >= heapVA && r.VA < heapVA+heapLen {
			ordered = append(ordered, r)
		}
	}
	for _, r := range regions {
		if r.Kind == osmem.Anon && (r.VA < heapVA || r.VA >= heapVA+heapLen) {
			ordered = append(ordered, r)
		}
	}
	var swapped int64
	for _, r := range ordered {
		// SwapOutUpTo walks the region's resident runs bottom-up and
		// reports how many pages actually reached the swap device —
		// zero when the device is full — so the returned total stays
		// conserved against machine swap occupancy.
		remaining := (budget - swapped + osmem.PageSize - 1) >> osmem.PageShift
		swapped += r.SwapOutUpTo(0, r.Pages(), remaining) * osmem.PageSize
		if swapped >= budget {
			break
		}
	}
	return swapped
}

// RetouchHeap re-faults up to budget bytes of the instance's
// non-resident heap pages through the ordinary fault path, bottom-up.
// The chaos layer uses it to model a runtime that returns fewer pages
// than its reclaim report promised: the pages come back exactly the
// way a real re-touch would (zero-fill minor faults, or major faults
// for swapped pages), so machine-wide accounting stays conserved.
// Returns the bytes actually made resident. The fault cost is drained
// and discarded — the perturbation itself is free, only its memory
// effect is observable.
func (i *Instance) RetouchHeap(budget int64) int64 {
	heapVA, heapLen := i.Runtime.HeapRange()
	var touched int64
	for _, r := range i.AS.Regions() {
		if r.Kind != osmem.Anon || !r.Accessible() || r.VA < heapVA || r.VA >= heapVA+heapLen {
			continue
		}
		remaining := (budget - touched + osmem.PageSize - 1) >> osmem.PageShift
		touched += r.FaultInUpTo(0, r.Pages(), remaining) * osmem.PageSize
		if touched >= budget {
			break
		}
	}
	i.AS.DrainFaultCost()
	return touched
}

func (i *Instance) String() string {
	return fmt.Sprintf("inst{%s %s uss=%.1fMB}", i.AS.Label(), i.status, float64(i.USS())/(1<<20))
}
