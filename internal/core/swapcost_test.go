package core

import (
	"testing"

	"desiccant/internal/sim"
)

// TestSwapModeWriteBackCostAccounting pins the ModeSwap cost model:
// a swap-out charges 2µs of write-back per 4KiB page that actually
// reached the device — no more, no less — and that cost lands in both
// the manager's CPUTime and the platform's ReclaimCPU.
func TestSwapModeWriteBackCostAccounting(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	cfg := testManagerConfig()
	cfg.Mode = ModeSwap
	mgr := startManager(p, cfg)
	mgr.checkEvent.Cancel() // drive manually

	newFrozenInstance(t, p, "image-resize", 1)
	eng.RunUntil(sim.Time(5 * sim.Second))
	mgr.threshold = 0 // force activation
	if !mgr.reclaimOne() {
		t.Fatal("no reclamation admitted")
	}
	eng.RunUntil(sim.Time(60 * sim.Second)) // begin + reclaim-done settle

	st := mgr.Stats()
	if st.Reclamations != 1 {
		t.Fatalf("reclamations: %d", st.Reclamations)
	}
	if st.SwappedBytes <= 0 {
		t.Fatalf("nothing swapped: %+v", st)
	}
	if st.SwapFallbacks != 0 {
		t.Fatalf("unexpected fallback on an unlimited device: %+v", st)
	}
	want := sim.Duration(st.SwappedBytes/4096) * 2 * sim.Microsecond
	diff := st.CPUTime - want
	if diff < 0 {
		diff = -diff
	}
	// The CPU account rounds through wall time once; allow 2µs slack.
	if diff > 2*sim.Microsecond {
		t.Fatalf("write-back CPU %v for %d swapped bytes, want %v (2µs per page)",
			st.CPUTime, st.SwappedBytes, want)
	}
	if p.Stats().ReclaimCPU != st.CPUTime {
		t.Fatalf("platform ReclaimCPU %v != manager CPUTime %v",
			p.Stats().ReclaimCPU, st.CPUTime)
	}
}

// TestSwapModeFallbackWhenDeviceFull pins the graceful-degradation
// path: with the swap device already at its limit, a ModeSwap
// reclamation must fall back to GC-cooperative release instead of
// leaving the instance untouched.
func TestSwapModeFallbackWhenDeviceFull(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	cfg := testManagerConfig()
	cfg.Mode = ModeSwap
	mgr := startManager(p, cfg)
	mgr.checkEvent.Cancel()

	p.Machine().SetSwapLimit(1) // one page: exhausted immediately
	newFrozenInstance(t, p, "image-resize", 1)
	eng.RunUntil(sim.Time(5 * sim.Second))
	mgr.threshold = 0
	if !mgr.reclaimOne() {
		t.Fatal("no reclamation admitted")
	}
	eng.RunUntil(sim.Time(60 * sim.Second))

	st := mgr.Stats()
	if st.SwapFallbacks != 1 {
		t.Fatalf("expected one swap fallback: %+v", st)
	}
	if st.ReleasedBytes <= 0 {
		t.Fatalf("fallback released nothing: %+v", st)
	}
	if got := p.Machine().SwapPages(); got > 1 {
		t.Fatalf("device over limit: %d pages", got)
	}
}
