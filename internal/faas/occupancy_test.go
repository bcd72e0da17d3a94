package faas

import (
	"fmt"
	"testing"

	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// recountOccupancy is the walk the occupancy tally replaced: the USS of
// every cached instance, summed, and how many there are.
func recountOccupancy(p *Platform) (int64, int) {
	var sum int64
	n := 0
	for _, pool := range p.cached {
		for _, inst := range pool {
			sum += inst.USS()
			n++
		}
	}
	return sum, n
}

// checkOccupancy holds MemoryUsed, CachedCount and IsCached to the
// recount.
func checkOccupancy(t *testing.T, p *Platform, step string) {
	t.Helper()
	sum, n := recountOccupancy(p)
	if got := p.MemoryUsed(); got != sum {
		t.Fatalf("%s: MemoryUsed %d, recount %d", step, got, sum)
	}
	if got := p.CachedCount(); got != n {
		t.Fatalf("%s: CachedCount %d, recount %d", step, got, n)
	}
	for _, pool := range p.cached {
		for _, inst := range pool {
			if !p.IsCached(inst) {
				t.Fatalf("%s: cached instance %d not IsCached", step, inst.ID)
			}
		}
	}
	for _, inst := range p.AppendInFlight(nil) {
		if p.IsCached(inst) {
			t.Fatalf("%s: in-flight instance %d IsCached", step, inst.ID)
		}
	}
}

// TestOccupancyMatchesRecount drives random freezes, thaws, pressure
// and keep-alive evictions, reclaims that unmap private libraries, heap
// swap-outs, migrations out and in, and co-mappers of the shared
// runtime libraries that come and go, on an OpenWhisk platform whose
// instances share those libraries, and holds the O(1) occupancy to the
// recount after every step. Destroying a sibling turns its shared
// pages private to the survivors, which raises their USS without any
// of them being touched.
func TestOccupancyMatchesRecount(t *testing.T) {
	names := []string{"clock", "fft", "matrix", "file-hash", "pi"}
	var specs []*workload.Spec
	for _, n := range names {
		s, err := workload.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.CacheBytes = 256 * mb // pressure evictions happen
			cfg.KeepAlive = 20 * sim.Second
			eng := sim.NewEngine()
			p := New(cfg, eng)
			m := p.Machine()
			rng := sim.NewRNG(seed)
			var co []*coMapper
			for step := 0; step < 300; step++ {
				var what string
				cached := p.AppendCached(nil)
				switch op := rng.Intn(8); {
				case op <= 2 || len(cached) == 0:
					what = "submit"
					p.Submit(specs[rng.Intn(len(specs))], eng.Now().Add(sim.Duration(rng.Intn(500))*sim.Millisecond))
					eng.RunFor(sim.Duration(rng.Intn(3000)) * sim.Millisecond)
				case op == 3:
					what = "reclaim"
					inst := cached[rng.Intn(len(cached))]
					inst.Reclaim(rng.Intn(2) == 0, true)
				case op == 4:
					what = "evict"
					p.evict(cached[rng.Intn(len(cached))], obs.EvictPressure)
				case op == 5:
					what = "swap-out"
					cached[rng.Intn(len(cached))].SwapOutHeap(int64(rng.Intn(8)) * mb)
				case op == 6:
					what = "migrate"
					spec, stage, ok := p.DetachColdest(obs.EvictMigrate)
					if ok && rng.Intn(2) == 0 {
						if _, err := p.AdoptFrozen(spec, stage); err != nil {
							t.Fatal(err)
						}
					}
				default:
					what = "co-mapper"
					if len(co) > 0 && rng.Intn(2) == 0 {
						k := rng.Intn(len(co))
						co[k].destroy()
						co = append(co[:k], co[k+1:]...)
					} else {
						co = append(co, newCoMapper(m, rng))
					}
				}
				checkOccupancy(t, p, fmt.Sprintf("step %d (%s)", step, what))
				if step%50 == 0 {
					if bad := m.Audit(); len(bad) != 0 {
						t.Fatalf("step %d (%s): machine audit: %v", step, what, bad)
					}
				}
			}
			for _, c := range co {
				c.destroy()
			}
			eng.Run()
			checkOccupancy(t, p, "drained")
			if bad := m.Audit(); len(bad) != 0 {
				t.Fatalf("machine audit: %v", bad)
			}
			if p.Stats().Evictions == 0 {
				t.Fatal("no eviction happened: the cache is too large to test pressure")
			}
		})
	}
}

// coMapper is an address space outside the platform that maps and
// touches part of every shared library, as a sibling process would.
type coMapper struct {
	m  *osmem.Machine
	as *osmem.AddressSpace
}

func newCoMapper(m *osmem.Machine, rng *sim.RNG) *coMapper {
	as := m.NewAddressSpace("co-mapper")
	for _, name := range m.Files() {
		f := m.File(name, 0)
		off := rng.Int63n(f.Pages)
		n := 1 + rng.Int63n(f.Pages-off)
		as.MmapFile(name, f, off, n).Touch(0, n, rng.Intn(4) == 0)
	}
	return &coMapper{m, as}
}

func (c *coMapper) destroy() { c.m.Destroy(c.as) }
