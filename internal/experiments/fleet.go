package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/cluster"
	"desiccant/internal/obs"
)

// writeFleetCSV renders a cluster replay in the ext-fleet columns:
// per-machine rows and the fleet-wide tail.
func writeFleetCSV(w io.Writer, r *cluster.Result) {
	fmt.Fprintf(w, "# fleet replay: %d machines behind one router\n", r.NodeCount)
	fmt.Fprintln(w, "machine,functions,completions,cold_boot_rate,p50_ms,p99_ms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d,%d,%d,%.4f,%.1f,%.1f\n",
			row.Node, row.Functions, row.Completions, row.ColdBootRate, row.P50, row.P99)
	}
	fmt.Fprintln(w, "scope,submitted,acked,p50_ms,p99_ms,max_ms")
	fmt.Fprintf(w, "fleet,%d,%d,%s,%s,%s\n",
		r.Submitted, r.Acks,
		obs.FormatValue(r.Fleet.Quantile(0.5)),
		obs.FormatValue(r.Fleet.Quantile(0.99)),
		obs.FormatValue(r.Fleet.Max()))
}
