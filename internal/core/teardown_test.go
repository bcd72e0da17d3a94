package core

import (
	"testing"

	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// killMidway is a faas.Injector that OOM-kills every execution halfway
// through.
type killMidway struct{}

func (killMidway) OOMKillAfter(_ int64, _ int, _ string, wall sim.Duration) (sim.Duration, bool) {
	return wall / 2, true
}

// seedState gives the manager per-instance state for id, as a
// reclamation (profile, begin stamp) and a failed one (retry count)
// would leave it.
func seedState(m *Manager, id int) {
	m.profiles.byInstance[id] = &avgProfile{n: 1, liveBytes: float64(mb)}
	m.lastReclaim[id] = 0
	m.retries[id] = 1
}

// holdsState reports whether the manager keeps any per-instance state
// for id.
func holdsState(m *Manager, id int) bool {
	_, prof := m.profiles.byInstance[id]
	_, last := m.lastReclaim[id]
	_, retry := m.retries[id]
	return prof || last || retry
}

// TestEveryTeardownDropsInstanceState drives each way an instance
// leaves a machine. Every one must drop the manager's per-instance
// state, which the manager learns only from the platform's bus; only
// the pressure eviction is Desiccant's signal to lower its threshold.
func TestEveryTeardownDropsInstanceState(t *testing.T) {
	const victim = 1 // fabricated here, or the platform's first cold boot
	cases := []struct {
		name     string
		config   func(*faas.Config)
		teardown func(t *testing.T, p *faas.Platform)
		pressure bool
	}{
		{"pressure eviction", func(c *faas.Config) { c.CacheBytes = 1 }, func(t *testing.T, p *faas.Platform) {
			newFrozenInstance(t, p, "clock", victim)
			if p.Stats().Evictions != 1 {
				t.Fatalf("evictions %d, want 1", p.Stats().Evictions)
			}
		}, true},
		{"keep-alive eviction", func(c *faas.Config) { c.KeepAlive = sim.Second }, func(t *testing.T, p *faas.Platform) {
			newFrozenInstance(t, p, "clock", victim)
			p.Engine().RunUntil(sim.Time(2 * sim.Second))
			if p.Stats().Evictions != 1 {
				t.Fatalf("evictions %d, want 1", p.Stats().Evictions)
			}
		}, false},
		{"injected OOM kill", func(c *faas.Config) { c.Chaos = killMidway{} }, func(t *testing.T, p *faas.Platform) {
			if err := p.SubmitName("clock", 0); err != nil {
				t.Fatal(err)
			}
			p.Engine().RunUntil(sim.Time(5 * sim.Second))
			if p.Stats().OOMKills == 0 {
				t.Fatal("no OOM kill")
			}
		}, false},
		{"snapshot-mode exit", func(c *faas.Config) { c.Snapshot = true }, func(t *testing.T, p *faas.Platform) {
			if err := p.SubmitName("clock", 0); err != nil {
				t.Fatal(err)
			}
			p.Engine().RunUntil(sim.Time(5 * sim.Second))
			if st := p.Stats(); st.Restores != 1 || st.Completions != 1 || p.CachedCount() != 0 {
				t.Fatalf("restores %d completions %d cached %d, want 1/1/0", st.Restores, st.Completions, p.CachedCount())
			}
		}, false},
		{"migration detach", func(*faas.Config) {}, func(t *testing.T, p *faas.Platform) {
			newFrozenInstance(t, p, "clock", victim)
			if _, _, ok := p.DetachColdest(obs.EvictMigrate); !ok {
				t.Fatal("detach failed")
			}
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pcfg := faas.DefaultConfig()
			pcfg.KeepAlive = 0
			c.config(&pcfg)
			mcfg := testManagerConfig()
			var thresholds []float64
			p, mgr, err := NewMachine(sim.NewEngine(), pcfg, &mcfg, func(p *faas.Platform, _ *Manager) {
				p.Events().Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
					if ev.Kind == obs.EvThreshold {
						thresholds = append(thresholds, ev.Val)
					}
				}))
			})
			if err != nil {
				t.Fatal(err)
			}
			seedState(mgr, victim)
			c.teardown(t, p)
			if holdsState(mgr, victim) {
				t.Fatal("manager kept per-instance state for the torn-down instance")
			}
			p.Engine().RunUntil(p.Engine().Now().Add(2 * checkInterval))
			mgr.Stop()
			lowered := false
			for _, v := range thresholds {
				lowered = lowered || v == mcfg.LowThreshold
			}
			if lowered != c.pressure {
				t.Fatalf("threshold reached LowThreshold: %v, want %v (thresholds %v)", lowered, c.pressure, thresholds)
			}
		})
	}
}
