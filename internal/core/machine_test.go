package core

import (
	"math"
	"strings"
	"testing"

	"desiccant/internal/faas"
	"desiccant/internal/sim"
)

// TestNewMachineRejectsInvalidConfigs feeds NewMachine one invalid
// field at a time, of the platform or of the manager, and expects an
// error naming it, with nothing built and the observer never called.
func TestNewMachineRejectsInvalidConfigs(t *testing.T) {
	plat := func(edit func(*faas.Config)) func(*faas.Config, *Config) {
		return func(p *faas.Config, _ *Config) { edit(p) }
	}
	mgr := func(edit func(*Config)) func(*faas.Config, *Config) {
		return func(_ *faas.Config, m *Config) { edit(m) }
	}
	cases := []struct {
		name, field string
		edit        func(*faas.Config, *Config)
	}{
		{"cache 0", "CacheBytes", plat(func(c *faas.Config) { c.CacheBytes = 0 })},
		{"cache negative", "CacheBytes", plat(func(c *faas.Config) { c.CacheBytes = -1 })},
		{"instance budget 0", "InstanceBudget", plat(func(c *faas.Config) { c.InstanceBudget = 0 })},
		{"per-instance CPU 0", "PerInstanceCPU", plat(func(c *faas.Config) { c.PerInstanceCPU = 0 })},
		{"per-instance CPU NaN", "PerInstanceCPU", plat(func(c *faas.Config) { c.PerInstanceCPU = math.NaN() })},
		{"CPUs below one instance", "CPUs", plat(func(c *faas.Config) { c.CPUs = c.PerInstanceCPU / 2 })},
		{"CPUs NaN", "CPUs", plat(func(c *faas.Config) { c.CPUs = math.NaN() })},
		{"low threshold NaN", "LowThreshold", mgr(func(c *Config) { c.LowThreshold = math.NaN() })},
		{"high threshold 2", "HighThreshold", mgr(func(c *Config) { c.HighThreshold = 2 })},
		{"inverted thresholds", "LowThreshold", mgr(func(c *Config) { c.LowThreshold, c.HighThreshold = 0.9, 0.6 })},
		{"max concurrent 0", "MaxConcurrent", mgr(func(c *Config) { c.MaxConcurrent = 0 })},
		{"freeze timeout negative", "FreezeTimeout", mgr(func(c *Config) { c.FreezeTimeout = -1 })},
		{"idle CPU +Inf", "ActivateOnIdleCPU", mgr(func(c *Config) { c.ActivateOnIdleCPU = math.Inf(1) })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pcfg, mcfg := faas.DefaultConfig(), DefaultConfig()
			c.edit(&pcfg, &mcfg)
			observed := false
			p, m, err := NewMachine(sim.NewEngine(), pcfg, &mcfg, func(*faas.Platform, *Manager) { observed = true })
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("err %v, want one naming %s", err, c.field)
			}
			if p != nil || m != nil || observed {
				t.Fatalf("built platform %v, manager %v, observed %v; want nothing built", p, m, observed)
			}
		})
	}
}
