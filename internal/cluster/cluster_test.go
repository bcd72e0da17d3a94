package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// quickOptions is the test fleet: small enough to run dozens of times,
// big enough that every policy spreads work across all nodes.
func quickOptions(policy string) Options {
	o := DefaultOptions()
	o.Nodes = 4
	o.Window = 10 * sim.Second
	o.Functions = 120
	o.Policy = policy
	o.Migration = Migration{}
	o.ZipfSkew = 0
	return o
}

func summary(t testing.TB, o Options) string {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteSummary(&buf)
	return buf.String()
}

// TestPolicySummaryPins pins every placement policy's summary on the
// plain test fleet (no migration) to the byte. The hashes were
// captured from the sharded runner that preceded the single engine,
// where they were equal at every shard count.
func TestPolicySummaryPins(t *testing.T) {
	want := map[string]string{
		PolicyPinned:       "2c9abc741ea7097219d3e0678b82f1a5b7c5a607b0d1c09157237c3d31a991fb",
		PolicyRandom:       "d687caeb172e51977a88d463959a8c0cb234e04a1f9c854ae3d080e6ee9c356c",
		PolicyLeastLoaded:  "c201129483430d06063dab5a53946c3345d6a561314acacb2b17daa383655b6f",
		PolicyGarbageAware: "ae58b5f33caf63a3c843153368ebc99c4b2c5a054b8e113ac0566baf1a50b7b6",
	}
	for _, policy := range PolicyNames {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			got := summary(t, quickOptions(policy))
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != want[policy] {
				t.Fatalf("summary sha256 %s, want %s:\n%s", sum, want[policy], got)
			}
		})
	}
}

// TestProtocolSummaryPins pins every placement policy's summary to
// the byte with migration orders flying over a small cache: pressure
// reports, migration orders, hand-offs and affinity moves all cross
// between router and nodes.
func TestProtocolSummaryPins(t *testing.T) {
	want := map[string]string{
		PolicyPinned:       "4770e9479b2a5325f57d2068a6a4773092d7cc5be02ead8f988f408730645807",
		PolicyRandom:       "841b431059f57e9d469ebf40c6a36f0befa4eb6d591473949169892f63319b39",
		PolicyLeastLoaded:  "01d16cfee566324c8139220e6bc2f8e58e47116f5d55b0a090a8c80bc3235fa1",
		PolicyGarbageAware: "432a0302697d5f51ac320b69576e4f110a3e1c6205b62f7178e760ed81b6267a",
	}
	for _, policy := range PolicyNames {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			o := quickOptions(policy)
			o.CacheBytes = 48 << 20
			o.Migration = DefaultMigration()
			o.Migration.HighFrac = 0.5
			o.Migration.LowFrac = 0.45
			got := summary(t, o)
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != want[policy] {
				t.Fatalf("summary sha256 %s, want %s:\n%s", sum, want[policy], got)
			}
		})
	}
}

// TestPoliciesSpreadWork pins basic routing health per policy: work
// lands on every node, completions flow, acks cross back.
func TestPoliciesSpreadWork(t *testing.T) {
	for _, policy := range PolicyNames {
		res, err := Run(quickOptions(policy))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckConsistency(); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		if res.Acks == 0 {
			t.Fatalf("policy %s: no completions acked", policy)
		}
		for _, row := range res.Rows {
			if row.Completions == 0 {
				t.Fatalf("policy %s: node %d completed nothing", policy, row.Node)
			}
		}
	}
}

// TestViewDrivenPoliciesSeeReports pins that the pressure protocol
// actually feeds the view-driven policies: reports arrive, and the
// garbage-aware packer concentrates functions instead of spreading
// them round-robin-thin.
func TestViewDrivenPoliciesSeeReports(t *testing.T) {
	for _, policy := range []string{PolicyLeastLoaded, PolicyGarbageAware} {
		res, err := Run(quickOptions(policy))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reports == 0 {
			t.Fatalf("policy %s: no pressure reports reached the router", policy)
		}
	}
}

// TestPressureEventCarriesBytes checks the node.pressure event a node
// emits on its own bus: Bytes is the machine's resident memory in
// bytes at that instant, not its page count.
func TestPressureEventCarriesBytes(t *testing.T) {
	o := quickOptions(PolicyLeastLoaded)
	samples := 0
	o.ObserveNode = func(p *faas.Platform, _ *core.Manager) {
		p.Events().Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
			if ev.Kind != obs.EvNodePressure {
				return
			}
			samples++
			if want := p.Machine().PhysBytes(); ev.Bytes != want {
				t.Fatalf("node.pressure Bytes = %d, want PhysBytes %d", ev.Bytes, want)
			}
		}))
	}
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no node.pressure events")
	}
}

// TestMigrationMovesInstances arms the relief valve over a small cache
// and checks hand-offs actually happen and conserve instances: every
// detach matched by an adoption, affinity re-homed (moves observed),
// and the whole summary pinned by TestProtocolSummaryPins; here we pin
// the counters.
func TestMigrationMovesInstances(t *testing.T) {
	o := quickOptions(PolicyGarbageAware)
	o.CacheBytes = 48 << 20
	o.Migration = DefaultMigration()
	o.Migration.HighFrac = 0.5
	o.Migration.LowFrac = 0.45
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.MigOrders == 0 {
		t.Fatal("no migration orders issued — relief valve never fired")
	}
	if res.MigratedOut == 0 {
		t.Fatal("orders issued but no instance detached")
	}
	if res.MigratedOut != res.MigratedIn {
		t.Fatalf("instance lost in transit: %d out, %d in", res.MigratedOut, res.MigratedIn)
	}
	if res.Moves == 0 {
		t.Fatal("no affinity re-home notices reached the router")
	}
}

// TestUnknownPolicyAndMode pins construction errors.
func TestUnknownPolicyAndMode(t *testing.T) {
	o := quickOptions(PolicyPinned)
	o.Policy = "teleport"
	if _, err := Run(o); err == nil {
		t.Fatal("unknown policy accepted")
	}
	o = quickOptions(PolicyPinned)
	o.Mode = "hibernate"
	if _, err := Run(o); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRejectsDegenerateReplays checks that options no replay can run
// fail with an error naming the field, before anything is scheduled:
// a NaN or infinite scale used to submit every function once per
// microsecond forever, the trace cases panicked inside the trace
// package, a zero cache panicked inside faas.New, and the other fleet
// cases ran silently with no window, no reports or thresholds no
// occupancy can cross.
func TestRejectsDegenerateReplays(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	migrate := func(high, low float64) func(*Options) {
		return func(o *Options) { o.Migration = Migration{HighFrac: high, LowFrac: low} }
	}
	cases := []struct {
		name  string
		field string
		edit  func(*Options)
	}{
		{"scale NaN", "Scale", func(o *Options) { o.Scale = nan }},
		{"scale +Inf", "Scale", func(o *Options) { o.Scale = inf }},
		{"scale 0", "Scale", func(o *Options) { o.Scale = 0 }},
		{"base rate NaN", "BaseRate", func(o *Options) { o.BaseRate = nan }},
		{"base rate 0", "BaseRate", func(o *Options) { o.BaseRate = 0 }},
		{"base rate -1", "BaseRate", func(o *Options) { o.BaseRate = -1 }},
		{"base rate +Inf", "BaseRate", func(o *Options) { o.BaseRate = inf }},
		{"functions 0", "Functions", func(o *Options) { o.Functions = 0 }},
		{"functions -1", "Functions", func(o *Options) { o.Functions = -1 }},
		{"functions below the matched set", "Functions", func(o *Options) { o.Functions = 19 }},
		{"zipf NaN", "ZipfSkew", func(o *Options) { o.ZipfSkew = nan }},
		{"zipf -2", "ZipfSkew", func(o *Options) { o.ZipfSkew = -2 }},
		{"zipf +Inf", "ZipfSkew", func(o *Options) { o.ZipfSkew = inf }},
		{"window 0", "Window", func(o *Options) { o.Window = 0 }},
		{"window negative", "Window", func(o *Options) { o.Window = -sim.Second }},
		{"cache 0", "CacheBytes", func(o *Options) { o.CacheBytes = 0 }},
		{"cache negative", "CacheBytes", func(o *Options) { o.CacheBytes = -1 }},
		{"report every negative", "ReportEvery", func(o *Options) { o.ReportEvery = -sim.Millisecond }},
		{"high frac NaN", "Migration.HighFrac", migrate(nan, 0.5)},
		{"high frac negative", "Migration.HighFrac", migrate(-0.1, 0)},
		{"high frac +Inf", "Migration.HighFrac", migrate(inf, 0.5)},
		{"low frac NaN", "Migration.LowFrac", migrate(0.85, nan)},
		{"low frac negative", "Migration.LowFrac", migrate(0.85, -0.5)},
		{"low frac negative, migration off", "Migration.LowFrac", migrate(0, -0.5)},
		{"low frac equals high frac", "Migration.LowFrac", migrate(0.6, 0.6)},
		{"low frac above high frac", "Migration.LowFrac", migrate(0.6, 0.9)},
		{"default low frac above high frac", "Migration.LowFrac", migrate(0.3, 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := quickOptions(PolicyPinned)
			o.Nodes = 2
			c.edit(&o)
			_, err := Run(o)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("err %v, want one naming %s", err, c.field)
			}
		})
	}
}

// BenchmarkClusterReplay is the CI-tracked cost of the full protocol:
// garbage-aware placement, pressure reports and migration over a
// 16-node fleet.
func BenchmarkClusterReplay(b *testing.B) {
	o := DefaultOptions()
	o.Window = 30 * sim.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Acks == 0 {
			b.Fatal("no work done")
		}
	}
}
