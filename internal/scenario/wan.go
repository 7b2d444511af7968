package scenario

import (
	"fmt"
	"strings"

	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
	"bundler/internal/udpapp"
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
	// P90 latencies for the same three configurations.
	BaseP90, StatusQuoP90, BundlerP90 float64
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

		runCase := func(withBundler, withLoad bool) (med, p90, mbps float64) {
			n := NewNet(NetConfig{Seed: seed, LinkRate: p.RateBps, RTT: p.BaseRTT,
				BufBytes: int(p.RateBps / 8 * 0.1)}) // ~100 ms of buffer in the middle
			var site *Site
			if withBundler {
				cfg := DefaultBundleConfig()
				// Twenty backlogged Cubic flows need more sendbox queue
				// than the web-workload default, or their synchronized
				// drops starve the pacer between recovery rounds.
				cfg.Scheduler = SchedulerByName(n.Eng, "sfq", 4000)
				site = n.AddSite(cfg)
			} else {
				site = n.AddSite(nil)
			}
			var pings []*udpapp.PingClient
			for i := 0; i < 10; i++ {
				pings = append(pings, site.AddPing())
			}
			var bulk []*tcp.Sender
			if withLoad {
				for i := 0; i < 20; i++ {
					bulk = append(bulk, site.AddFlow(1<<40, tcp.NewCubic(), nil))
				}
			}
			// Measure after convergence: both probes and throughput use
			// the window past dur/4.
			n.Eng.RunUntil(dur / 4)
			var ackedWarm int64
			for _, b := range bulk {
				ackedWarm += b.Acked()
			}
			n.Eng.RunUntil(dur)
			if site.SB != nil {
				site.SB.Stop()
			}
			var all stats.Sample
			for _, pc := range pings {
				for i, at := range pc.Series.T {
					if at > dur/4 {
						all.Add(pc.Series.V[i])
					}
				}
			}
			var acked int64
			for _, b := range bulk {
				acked += b.Acked()
			}
			mbps = float64(acked-ackedWarm) * 8 / (dur - dur/4).Seconds() / 1e6
			return all.Median(), all.Quantile(0.9), mbps
		}

		res.BaseRTT, res.BaseP90, _ = runCase(false, false)
		res.StatusQuoRTT, res.StatusQuoP90, res.StatusQuoMbps = runCase(false, true)
		res.BundlerRTT, res.BundlerP90, res.BundlerMbps = runCase(true, true)
		out = append(out, res)
	}
	return out
}

// --- experiment adapter ---

// fig16Exp emulates the §8 wide-area deployments.
type fig16Exp struct{}

func (fig16Exp) Name() string { return "fig16" }
func (fig16Exp) Desc() string {
	return "Figure 16: emulated wide-area paths — probe RTTs and bulk throughput"
}
func (fig16Exp) Params() []exp.Param {
	return []exp.Param{{Name: "dur", Default: "15s", Help: "virtual time per path and configuration"}}
}

func (e fig16Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	dur := sim.FromSeconds(b.Duration("dur").Seconds())
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	rows := RunFig16(seed, dur)
	var w strings.Builder
	ReportHeader(&w, "Figure 16: emulated wide-area paths (paper: 57% lower latencies, throughput within 1%)")
	fmt.Fprintf(&w, "%-12s %10s %12s %10s | %14s %12s\n",
		"path", "base ms", "statusquo ms", "bundler ms", "statusquo Mb/s", "bundler Mb/s")
	out := exp.Result{Experiment: "fig16", Seed: seed, Params: p}
	for _, r := range rows {
		fmt.Fprintf(&w, "%-12s %10.1f %12.1f %10.1f | %14.0f %12.0f\n",
			r.Name, r.BaseRTT, r.StatusQuoRTT, r.BundlerRTT, r.StatusQuoMbps, r.BundlerMbps)
		out.AddMetric(r.Name+"/statusquo-rtt", r.StatusQuoRTT, "ms")
		out.AddMetric(r.Name+"/bundler-rtt", r.BundlerRTT, "ms")
		out.AddMetric(r.Name+"/statusquo-Mbps", r.StatusQuoMbps, "Mbps")
		out.AddMetric(r.Name+"/bundler-Mbps", r.BundlerMbps, "Mbps")
	}
	out.Report = w.String()
	return out, nil
}
