package scenario

import (
	"fmt"

	"bundler/internal/exp"
	"bundler/internal/sim"
)

// policies extends §7.2 across every scheduler this repository
// implements: the paper evaluates SFQ (Fig 9), FQ-CoDel and strict
// priority (§7.2); the sweep adds the cited-but-unevaluated disciplines
// (CoDel, RED, DRR, PIE) under the same workload so their trade-offs are
// directly comparable — scheduling (SFQ/DRR/FQ-CoDel) is what protects
// short flows; pure AQM (CoDel/RED/PIE) bounds delay but cannot reorder.
func policies(r *exp.Run) error {
	requests := r.Int("requests") / 2 // per policy
	ReportHeader(r, "Extension: full sendbox policy sweep (schedulers vs AQMs)")
	fmt.Fprintf(r, "%-10s %14s %12s %12s %12s\n", "policy", "median slow", "p99 slow", "probe p50", "probe p99")
	for _, pol := range []string{"fifo", "sfq", "drr", "fqcodel", "codel", "red", "pie"} {
		n := newNet(netConfig{Seed: r.Seed})
		site := n.addSite(n.bundleConfig("copa", pol, 1000))
		probes := site.addPings(5)
		rec := site.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: requests,
			Warmup: 2 * sim.Second})
		n.RunUntilDone(600*sim.Second, rec)
		site.stop()
		// Latency-probe RTTs sharing the bundle, ms.
		rtts := probeSamples(probes, 2*sim.Second)
		median, p99 := rec.Slowdowns.Median(), rec.Slowdowns.Quantile(0.99)
		fmt.Fprintf(r, "%-10s %14.2f %12.2f %10.1fms %10.1fms\n",
			pol, median, p99, rtts.Median(), rtts.Quantile(0.99))
		r.AddMetric(pol+"/median-slowdown", median, "")
		r.AddMetric(pol+"/p99-slowdown", p99, "")
		r.AddMetric(pol+"/probe-p99", rtts.Quantile(0.99), "ms")
	}
	return nil
}
