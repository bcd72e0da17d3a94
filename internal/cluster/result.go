package cluster

import (
	"fmt"
	"io"
	"math"

	"desiccant/internal/metrics"
	"desiccant/internal/obs"
)

// NodeRow is one machine's share of the replay.
type NodeRow struct {
	// Node is the 0-based machine index.
	Node int
	// Functions is the number of distinct functions routed here.
	Functions int
	// Completions / ColdBootRate / P50 / P99 / Evictions come from the
	// node platform's own stats.
	Completions  int64
	ColdBootRate float64
	P50, P99     float64
	Evictions    int64
	// MigratedOut / MigratedIn count cross-machine instance hand-offs.
	MigratedOut int64
	MigratedIn  int64
	// PeakBytes is the machine's peak committed physical memory.
	PeakBytes int64
}

// Result is one cluster replay's measurement: per-node rows plus the
// router-side fleet histogram and the merge of the node-local
// histograms, which must agree (CheckConsistency), and the
// cluster-protocol counters.
type Result struct {
	Policy       string
	Mode         string
	NodeCount    int
	CachePerNode int64
	Submitted    int64
	Acks         int64
	Fleet        *metrics.Histogram
	Merged       *metrics.Histogram
	Rows         []NodeRow

	// Fleet totals folded over the rows.
	Completions int64
	ColdBoots   int64
	MigratedOut int64
	MigratedIn  int64
	PeakBytes   int64

	// Protocol counters from the router.
	Reports   int64
	MigOrders int64
	Moves     int64

	// AdoptErrs lists failed adoptions; any entry is an inconsistency.
	AdoptErrs []string
	// Violations lists router-side bookkeeping breaches.
	Violations []string
}

// ColdBootRate returns fleet-wide cold boots per completion.
func (r *Result) ColdBootRate() float64 {
	if r.Completions == 0 {
		return 0
	}
	return float64(r.ColdBoots) / float64(r.Completions)
}

// HeadroomX is the memory-overcommit headroom: provisioned frozen
// cache across the fleet over the peak physical memory the replay
// actually committed. Above 1 the fleet never needed its full
// provision; the capacity sweep reports how far each policy × mode
// stretches it.
func (r *Result) HeadroomX() float64 {
	if r.PeakBytes == 0 {
		return 0
	}
	return float64(r.NodeCount) * float64(r.CachePerNode) / float64(r.PeakBytes)
}

// CheckConsistency verifies the router/node bookkeeping: every
// completion acked exactly once, router and merged node histograms
// identical, no router violations, no lost instances — every detach
// matched by an adoption or a recorded error. Any drift means a
// message between router and nodes was lost, duplicated or reordered.
func (r *Result) CheckConsistency() error {
	var completions int64
	for _, row := range r.Rows {
		completions += row.Completions
	}
	if r.Acks != completions {
		return fmt.Errorf("cluster: %d acks for %d completions", r.Acks, completions)
	}
	if r.Fleet.Count() != r.Merged.Count() {
		return fmt.Errorf("cluster: router histogram count %d, merged nodes %d",
			r.Fleet.Count(), r.Merged.Count())
	}
	// The sums fold the same values in different orders (ack arrival
	// vs node-by-node merge), so compare up to float rounding.
	fs, ms := r.Fleet.Sum(), r.Merged.Sum()
	if diff := math.Abs(fs - ms); diff > 1e-9*math.Max(math.Abs(fs), 1) {
		return fmt.Errorf("cluster: router histogram sum %v, merged nodes %v", fs, ms)
	}
	for i := 0; i < r.Fleet.NumBuckets(); i++ {
		ub, fc := r.Fleet.Bucket(i)
		_, mc := r.Merged.Bucket(i)
		if fc != mc {
			return fmt.Errorf("cluster: bucket %d (upper %v) router=%d merged=%d", i, ub, fc, mc)
		}
	}
	if r.MigratedOut != r.MigratedIn+int64(len(r.AdoptErrs)) {
		return fmt.Errorf("cluster: %d instances detached, %d adopted, %d adopt errors — instance lost",
			r.MigratedOut, r.MigratedIn, len(r.AdoptErrs))
	}
	for _, e := range r.AdoptErrs {
		return fmt.Errorf("cluster: adoption failed: %s", e)
	}
	for _, v := range r.Violations {
		return fmt.Errorf("cluster: router violation: %s", v)
	}
	return nil
}

// WriteSummary renders the per-node rows and the fleet-wide tail.
func (r *Result) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "# cluster replay: %d nodes, policy=%s, mode=%s\n", r.NodeCount, r.Policy, r.Mode)
	// dead (always false) and deaths (always 0) keep TestPolicySummaryPins' bytes.
	fmt.Fprintln(w, "node,functions,completions,cold_boot_rate,p50_ms,p99_ms,evictions,migrated_out,migrated_in,peak_mb,dead")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d,%d,%d,%.4f,%.1f,%.1f,%d,%d,%d,%d,false\n",
			row.Node, row.Functions, row.Completions, row.ColdBootRate,
			row.P50, row.P99, row.Evictions, row.MigratedOut, row.MigratedIn,
			row.PeakBytes>>20)
	}
	fmt.Fprintln(w, "scope,submitted,acked,cold_boot_rate,p50_ms,p99_ms,max_ms,headroom_x,reports,migrations,moves,deaths")
	fmt.Fprintf(w, "fleet,%d,%d,%.4f,%s,%s,%s,%.2f,%d,%d,%d,0\n",
		r.Submitted, r.Acks, r.ColdBootRate(),
		obs.FormatValue(r.Fleet.Quantile(0.5)),
		obs.FormatValue(r.Fleet.Quantile(0.99)),
		obs.FormatValue(r.Fleet.Max()),
		r.HeadroomX(), r.Reports, r.MigOrders, r.Moves)
}
