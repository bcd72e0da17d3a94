package invariant_test

import (
	"testing"

	"desiccant/internal/chaos"
	"desiccant/internal/cluster"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// TestObserverSeesInitialThreshold holds every way of building a
// machine to core.NewMachine's order: the observer attaches before the
// manager starts, so the first event it sees is the manager's t=0
// threshold announcement. A checker attached any later would miss it.
func TestObserverSeesInitialThreshold(t *testing.T) {
	cases := []struct {
		name string
		run  func(observe core.Observer)
	}{
		{"core.NewMachine", func(observe core.Observer) {
			mcfg := core.DefaultConfig()
			eng := sim.NewEngine()
			_, mgr, err := core.NewMachine(eng, faas.DefaultConfig(), &mcfg, observe)
			if err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(sim.Time(sim.Second))
			mgr.Stop()
		}},
		{"chaos.RunScenario", func(observe core.Observer) {
			o := chaos.DefaultScenarioOptions(1)
			o.Mode = chaos.ManagerReclaim
			o.Window = 5 * sim.Second
			o.Requests = 20
			o.Observe = observe
			if _, err := chaos.RunScenario(o); err != nil {
				t.Fatal(err)
			}
		}},
		{"cluster node", func(observe core.Observer) {
			o := cluster.DefaultOptions()
			o.Nodes = 1
			o.Window = 5 * sim.Second
			o.Functions = 50
			o.ObserveNode = observe
			if _, err := cluster.Run(o); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var first *obs.Event
			calls := 0
			c.run(func(p *faas.Platform, mgr *core.Manager) {
				calls++
				if mgr == nil {
					t.Fatal("observer got no manager")
				}
				p.Events().Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
					if first == nil {
						first = &ev
					}
				}))
			})
			if calls != 1 {
				t.Fatalf("observer ran %d times, want 1", calls)
			}
			if first == nil {
				t.Fatal("observer saw no events")
			}
			if first.Kind != obs.EvThreshold || first.Time != 0 {
				t.Fatalf("first event %v at %v, want %v at 0", first.Kind, first.Time, obs.EvThreshold)
			}
		})
	}
}
