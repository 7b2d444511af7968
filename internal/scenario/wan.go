package scenario

import (
	"fmt"

	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// WANPath is one emulated wide-area path from the sender datacenter to a
// remote region (§8's GCP Iowa → {Belgium, Frankfurt, Oregon, South
// Carolina, Tokyo} over the public Internet).
type WANPath struct {
	Name    string
	BaseRTT sim.Time
	// RateBps is the non-edge bottleneck (the paper suspects a cloud
	// egress rate limiter or an on-path ISP).
	RateBps float64
}

// DefaultWANPaths approximates the five §8 deployments. Rates are scaled
// down from the 2–4 Gbit/s testbed so the sweep runs quickly; the
// queueing behaviour is rate-independent.
func DefaultWANPaths() []WANPath {
	return []WANPath{
		{"belgium", 102 * sim.Millisecond, 200e6},
		{"frankfurt", 106 * sim.Millisecond, 200e6},
		{"oregon", 36 * sim.Millisecond, 200e6},
		{"s-carolina", 30 * sim.Millisecond, 200e6},
		{"tokyo", 140 * sim.Millisecond, 200e6},
	}
}

// WANPathResult summarizes one bundle in the §8 experiment.
type WANPathResult struct {
	Name string
	// Milliseconds, medians over the 10 request/response loops.
	BaseRTT, StatusQuoRTT, BundlerRTT float64
	// Backlogged-transfer throughput (Mbit/s) with and without Bundler;
	// the paper reports Bundler within 1 % of status quo.
	StatusQuoMbps, BundlerMbps float64
}

// RunFig16 reproduces the §8 real-path experiment in emulation. Per path:
// (i) base RTT from 10 closed-loop 40-byte UDP request/response pairs on
// an idle path; (ii) the same probes competing with 20 backlogged flows,
// without Bundler; (iii) with Bundler (SFQ). Bundler should restore
// request-response RTTs to near the base while preserving bulk throughput.
func RunFig16(seed int64, dur sim.Time) []WANPathResult {
	var out []WANPathResult
	for _, p := range DefaultWANPaths() {
		res := WANPathResult{Name: p.Name}

		runCase := func(alg string, withLoad bool) (med, mbps float64) {
			n := newNet(netConfig{Seed: seed, LinkRate: p.RateBps, RTT: p.BaseRTT,
				BufBytes: int(p.RateBps / 8 * 0.1)}) // ~100 ms of buffer in the middle
			// Twenty backlogged Cubic flows need more sendbox queue than
			// the web-workload default, or their synchronized drops
			// starve the pacer between recovery rounds.
			site := n.addSite(n.bundleConfig(alg, "sfq", 4000))
			pings := site.addPings(10)
			var bulk []*tcp.Sender
			if withLoad {
				for i := 0; i < 20; i++ {
					bulk = append(bulk, site.AddFlow(1<<40, tcp.NewCubic(), nil))
				}
			}
			// Measure after convergence: both probes and throughput use
			// the window past dur/4.
			mbps = goodputMbps(n.eng, bulk, dur/4, dur)
			site.stop()
			return probeSamples(pings, dur/4).Median(), mbps
		}

		res.BaseRTT, _ = runCase("", false)
		res.StatusQuoRTT, res.StatusQuoMbps = runCase("", true)
		res.BundlerRTT, res.BundlerMbps = runCase("copa", true)
		out = append(out, res)
	}
	return out
}

// --- experiment body (the table is in experiments.go) ---

// fig16 emulates the §8 wide-area deployments.
func fig16(r *exp.Run) error {
	rows := RunFig16(r.Seed, simDuration(r, "dur"))
	ReportHeader(r, "Figure 16: emulated wide-area paths (paper: 57% lower latencies, throughput within 1%)")
	fmt.Fprintf(r, "%-12s %10s %12s %10s | %14s %12s\n",
		"path", "base ms", "statusquo ms", "bundler ms", "statusquo Mb/s", "bundler Mb/s")
	for _, row := range rows {
		fmt.Fprintf(r, "%-12s %10.1f %12.1f %10.1f | %14.0f %12.0f\n",
			row.Name, row.BaseRTT, row.StatusQuoRTT, row.BundlerRTT, row.StatusQuoMbps, row.BundlerMbps)
		r.AddMetric(row.Name+"/statusquo-rtt", row.StatusQuoRTT, "ms")
		r.AddMetric(row.Name+"/bundler-rtt", row.BundlerRTT, "ms")
		r.AddMetric(row.Name+"/statusquo-Mbps", row.StatusQuoMbps, "Mbps")
		r.AddMetric(row.Name+"/bundler-Mbps", row.BundlerMbps, "Mbps")
	}
	return nil
}
