package faas

import (
	"fmt"

	"desiccant/internal/container"
	"desiccant/internal/obs"
	"desiccant/internal/workload"
)

// Cross-machine instance hand-off. A migration moves a *frozen*
// instance between platforms in two halves that the cluster layer
// connects with a cross-domain send: the source detaches the instance
// (DetachColdest), the destination re-materializes it (AdoptFrozen).
// Only the identity travels — spec and warm-up stage — mirroring
// snapshot shipping: the destination restores a pre-initialized image
// into a fresh address space rather than copying live pages, so the two
// machines never share OS state and each half stays a single-domain
// operation.

// DetachColdest removes the least-recently-used frozen instance from
// the cache and destroys its local address space, returning the spec
// and stage the destination needs to adopt it. Instances mid-reclaim
// are skipped — tearing down a reclamation in flight would waste the
// CPU it already spent, and the manager is about to hand back the
// very memory the migration wants to free. Returns ok=false when no
// migratable instance exists.
func (p *Platform) DetachColdest(reason int64) (spec *workload.Spec, stage int, ok bool) {
	var victim *container.Instance
	p.lru = p.AppendCached(p.lru[:0])
	for _, inst := range p.lru {
		if !inst.Reclaiming {
			victim = inst
			break
		}
	}
	clear(p.lru) // pin no dead instance
	if victim == nil {
		return nil, 0, false
	}
	return p.detach(victim, reason)
}

// detach is the source half: remove from the cache, emit the EvEvict
// that tells subscribers the instance is gone from this machine, and
// release its pages. Deliberately does not count an Eviction — the
// instance is not gone from the fleet — and reason is never
// obs.EvictPressure, Desiccant's memory-pressure signal: a hand-off
// frees memory without signaling pressure.
func (p *Platform) detach(inst *container.Instance, reason int64) (*workload.Spec, int, bool) {
	p.uncache(inst)
	p.bus.Emit(obs.Event{Kind: obs.EvEvict, Inst: inst.ID, Name: inst.Spec.Name,
		Bytes: inst.USS(), Aux: reason})
	p.stats.MigratedOut++
	p.destroy(inst)
	return inst.Spec, inst.Stage, true
}

// AdoptFrozen is the destination half: build a fresh instance of the
// function's stage, hydrate it to the pre-initialized state a
// snapshot restore leaves (Hydrate runs the silent init pass against
// this machine's memory), freeze it, and insert it into the cache.
// The adopted instance is indistinguishable from a locally-frozen one
// from then on: keep-alive applies, pressure can evict it, Desiccant
// can reclaim it, and a warm request thaws it.
func (p *Platform) AdoptFrozen(spec *workload.Spec, stage int) (*container.Instance, error) {
	now := p.eng.Now()
	p.nextInstID++
	inst, err := container.New(p.machine, p.nextInstID, spec, stage, now, p.instOpts)
	if err != nil {
		return nil, fmt.Errorf("faas: adopt %s/%d: %w", spec.Name, stage, err)
	}
	if err := inst.Hydrate(now, p.rng); err != nil {
		p.destroy(inst) // never announced: no subscriber holds its state
		return nil, fmt.Errorf("faas: adopt %s/%d: %w", spec.Name, stage, err)
	}
	inst.Freeze(now)
	p.stats.MigratedIn++
	p.AddCached(inst)
	return inst, nil
}
