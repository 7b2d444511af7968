package scenario

import (
	"fmt"
	"strings"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/udpapp"
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
	policies := []string{"fifo", "sfq", "drr", "fqcodel", "codel", "red", "pie"}
	var out []PolicyRow
	for _, pol := range policies {
		n := NewNet(NetConfig{Seed: seed})
		cfg := &bundle.Config{Algorithm: "copa"}
		cfg.Scheduler = SchedulerByName(n.Eng, pol, 1000)
		site := n.AddSite(cfg)
		var probes []*udpapp.PingClient
		for i := 0; i < 5; i++ {
			probes = append(probes, site.AddPing())
		}
		rec := site.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: requests,
			Warmup: 2 * sim.Second})
		n.RunUntilDone(600*sim.Second, func() bool {
			return rec.Completed >= requests
		})
		site.SB.Stop()
		var rtts stats.Sample
		for _, pc := range probes {
			for i, at := range pc.Series.T {
				if at > 2*sim.Second {
					rtts.Add(pc.Series.V[i])
				}
			}
		}
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

// --- experiment adapter ---

// policiesExp is the extended scheduler-vs-AQM sweep.
type policiesExp struct{}

func (policiesExp) Name() string { return "policies" }
func (policiesExp) Desc() string {
	return "extension: every sendbox scheduler/AQM under the Fig 9 workload"
}
func (policiesExp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

func (e policiesExp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	rows := RunPolicySweep(seed, requests/2)
	var w strings.Builder
	ReportHeader(&w, "Extension: full sendbox policy sweep (schedulers vs AQMs)")
	fmt.Fprintf(&w, "%-10s %14s %12s %12s %12s\n", "policy", "median slow", "p99 slow", "probe p50", "probe p99")
	out := exp.Result{Experiment: "policies", Seed: seed, Params: p}
	for _, r := range rows {
		fmt.Fprintf(&w, "%-10s %14.2f %12.2f %10.1fms %10.1fms\n",
			r.Policy, r.MedianSlowdown, r.P99Slowdown, r.ProbeP50Ms, r.ProbeP99Ms)
		out.AddMetric(r.Policy+"/median-slowdown", r.MedianSlowdown, "")
		out.AddMetric(r.Policy+"/p99-slowdown", r.P99Slowdown, "")
		out.AddMetric(r.Policy+"/probe-p99", r.ProbeP99Ms, "ms")
	}
	out.Report = w.String()
	return out, nil
}
