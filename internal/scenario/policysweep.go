package scenario

import (
	"fmt"

	"bundler/internal/exp"
	"bundler/internal/sim"
)

// PolicyRow is one sendbox scheduling policy's outcome in the extended
// §7.2 sweep.
type PolicyRow struct {
	Policy string
	// Median FCT slowdown of the web workload.
	MedianSlowdown float64
	// P99 slowdown (tail isolation).
	P99Slowdown float64
	// Latency-probe RTTs sharing the bundle (median / p99, ms).
	ProbeP50Ms, ProbeP99Ms float64
}

// RunPolicySweep extends §7.2 across every scheduler this repository
// implements: the paper evaluates SFQ (Fig 9), FQ-CoDel and strict
// priority (§7.2); the sweep adds the cited-but-unevaluated disciplines
// (CoDel, RED, DRR, PIE) under the same workload so their trade-offs are
// directly comparable — scheduling (SFQ/DRR/FQ-CoDel) is what protects
// short flows; pure AQM (CoDel/RED/PIE) bounds delay but cannot reorder.
func RunPolicySweep(seed int64, requests int) []PolicyRow {
	var out []PolicyRow
	for _, pol := range []string{"fifo", "sfq", "drr", "fqcodel", "codel", "red", "pie"} {
		n := NewNet(NetConfig{Seed: seed})
		site := n.AddSite(n.bundleConfig("copa", pol, 1000))
		probes := site.AddPings(5)
		rec := site.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: requests,
			Warmup: 2 * sim.Second})
		n.RunUntilDone(600*sim.Second, func() bool {
			return rec.Completed >= requests
		})
		site.Stop()
		rtts := probeSamples(probes, 2*sim.Second)
		out = append(out, PolicyRow{
			Policy:         pol,
			MedianSlowdown: rec.Slowdowns.Median(),
			P99Slowdown:    rec.Slowdowns.Quantile(0.99),
			ProbeP50Ms:     rtts.Median(),
			ProbeP99Ms:     rtts.Quantile(0.99),
		})
	}
	return out
}

// --- experiment body (the table is in experiments.go) ---

// policies is the extended scheduler-vs-AQM sweep.
func policies(r *exp.Run) error {
	rows := RunPolicySweep(r.Seed, r.Int("requests")/2)
	ReportHeader(r, "Extension: full sendbox policy sweep (schedulers vs AQMs)")
	fmt.Fprintf(r, "%-10s %14s %12s %12s %12s\n", "policy", "median slow", "p99 slow", "probe p50", "probe p99")
	for _, row := range rows {
		fmt.Fprintf(r, "%-10s %14.2f %12.2f %10.1fms %10.1fms\n",
			row.Policy, row.MedianSlowdown, row.P99Slowdown, row.ProbeP50Ms, row.ProbeP99Ms)
		r.AddMetric(row.Policy+"/median-slowdown", row.MedianSlowdown, "")
		r.AddMetric(row.Policy+"/p99-slowdown", row.P99Slowdown, "")
		r.AddMetric(row.Policy+"/probe-p99", row.ProbeP99Ms, "ms")
	}
	return nil
}
