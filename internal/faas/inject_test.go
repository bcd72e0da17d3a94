package faas

import (
	"testing"

	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// killEvery is an Injector that OOM-kills every execution halfway in.
type killEvery struct{}

func (killEvery) OOMKillAfter(_ int64, _ int, _ string, wall sim.Duration) (sim.Duration, bool) {
	return wall / 2, true
}

// TestOOMKillRequeuesOnceThenDrops checks the requeue bound: with every
// execution killed, each invocation restarts exactly once and is then
// dropped as requeue-exhausted.
func TestOOMKillRequeuesOnceThenDrops(t *testing.T) {
	cfg := testConfig()
	cfg.Chaos = killEvery{}
	eng := sim.NewEngine()
	p := New(cfg, eng)
	rec := obs.NewRecorder()
	p.Events().Subscribe(rec)
	names := []string{"sort", "fft", "file-hash", "pi"}
	for i, name := range names {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(3*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	n := int64(len(names))
	st := p.Stats()
	if st.Requests != n || st.Completions != 0 || st.OOMKills != 2*n || st.Requeues != n || st.Drops != n {
		t.Fatalf("requests %d completions %d kills %d requeues %d drops %d, want %d/0/%d/%d/%d",
			st.Requests, st.Completions, st.OOMKills, st.Requeues, st.Drops, n, 2*n, n, n)
	}
	kills := map[int64]int{}
	drops := map[int64]int{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.EvOOMKill:
			kills[ev.Invo]++
		case obs.EvInvokeDrop:
			if ev.Aux != obs.DropRequeueExhausted {
				t.Fatalf("invocation %d dropped with reason %d", ev.Invo, ev.Aux)
			}
			drops[ev.Invo]++
		}
	}
	if int64(len(drops)) != n {
		t.Fatalf("%d invocations dropped, want %d", len(drops), n)
	}
	for invo, d := range drops {
		if d != 1 || kills[invo] != 2 {
			t.Fatalf("invocation %d: %d kills, %d drops; want 2 and 1", invo, kills[invo], d)
		}
	}
}
