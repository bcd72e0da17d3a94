package container

import (
	"fmt"

	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Prewarmed is a stem-cell container (OpenWhisk's pre-warm pool): the
// language runtime is booted and its libraries mapped, but no function
// is assigned yet. Assigning a function turns it into a regular
// Instance for a fraction of a full cold boot.
type Prewarmed struct {
	ID       int
	Language runtime.Language

	machine *osmem.Machine
	as      *osmem.AddressSpace
	rt      runtime.Runtime
	libs    []*osmem.Region
	used    bool
	// invoCell is created with the stem cell's runtime observer and
	// handed to the Instance at Assign, so invocation tagging keeps
	// working across the stem cell's whole life (see Instance.invoCell).
	invoCell *int64
}

// NewPrewarmed boots a stem-cell container for the given language.
func NewPrewarmed(machine *osmem.Machine, id int, lang runtime.Language, opts Options) (*Prewarmed, error) {
	label := fmt.Sprintf("prewarm-%s#%d", lang, id)
	as := machine.NewAddressSpace(label)
	p := &Prewarmed{ID: id, Language: lang, machine: machine, as: as,
		invoCell: new(int64)}

	p.libs = mapLibraries(machine, as, lang, opts.ShareLibraries, "pw", id)

	// The stem cell keeps its ID when assigned a function, so tagging
	// events with it now stays correct for its whole life.
	rt, err := newRuntime(machine, as, workload.RuntimeFor(lang), opts, id, "prewarm", p.invoCell)
	if err != nil {
		return nil, err
	}
	p.rt = rt
	as.DrainFaultCost()
	return p, nil
}

// USS returns the stem cell's unique set size.
func (p *Prewarmed) USS() int64 { return p.as.USS() }

// Assign turns the stem cell into a function instance: the function's
// non-heap state is mapped, workload state is created, and the
// existing runtime/heap is reused. The Prewarmed must not be reused.
func (p *Prewarmed) Assign(spec *workload.Spec, stage int, now sim.Time) (*Instance, error) {
	if p.used {
		panic("container: Prewarmed reused")
	}
	if spec.Language != p.Language {
		return nil, fmt.Errorf("container: %s stem cell cannot run %s function %s",
			p.Language, spec.Language, spec.Name)
	}
	p.used = true
	inst := &Instance{
		ID: p.ID, Spec: spec, Stage: stage,
		Runtime: p.rt, AS: p.as,
		status: Idle, lastUsed: now,
		libRegions: p.libs,
		invoCell:   p.invoCell,
	}
	inst.nonheap = p.as.MmapAnon("nonheap", spec.NonHeapBytes)
	inst.nonheap.Touch(0, inst.nonheap.Pages(), true)
	inst.State = workload.NewState(spec, stage, inst.Runtime.Objects())
	p.as.DrainFaultCost()
	return inst, nil
}

// Destroy tears the unused stem cell down and releases its runtime.
func (p *Prewarmed) Destroy() {
	if p.used {
		panic("container: Destroy of an assigned Prewarmed")
	}
	p.used = true
	p.machine.Destroy(p.as)
	p.rt.Release()
}
