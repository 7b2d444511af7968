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

// Sec72CoDelResult is the §7.2 FQ-CoDel highlight: end-to-end RTTs for
// latency probes sharing the bundle with the web workload.
type Sec72CoDelResult struct {
	StatusQuoMedianMs, StatusQuoP99Ms float64
	BundlerMedianMs, BundlerP99Ms     float64
}

// RunSec72CoDel measures request/response RTTs through the loaded
// bottleneck with and without Bundler running FQ-CoDel at the sendbox.
// The paper reports ~97 % lower median and ~89 % lower 99th-percentile
// RTTs.
func RunSec72CoDel(seed int64, dur sim.Time) Sec72CoDelResult {
	run := func(withBundler bool) (med, p99 float64) {
		n := NewNet(NetConfig{Seed: seed})
		var site *Site
		if withBundler {
			cfg := &bundle.Config{Algorithm: "copa"}
			cfg.Scheduler = SchedulerByName(n.Eng, "fqcodel", 1000)
			site = n.AddSite(cfg)
		} else {
			site = n.AddSite(nil)
		}
		var pings []*udpapp.PingClient
		for i := 0; i < 10; i++ {
			pings = append(pings, site.AddPing())
		}
		site.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: 1 << 30})
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
		return all.Median(), all.Quantile(0.99)
	}
	var res Sec72CoDelResult
	res.StatusQuoMedianMs, res.StatusQuoP99Ms = run(false)
	res.BundlerMedianMs, res.BundlerP99Ms = run(true)
	return res
}

// Sec72PrioResult is the §7.2 strict-priority highlight.
type Sec72PrioResult struct {
	// Median FCT slowdowns for the favored (high) and other (low)
	// classes, with Bundler's priority scheduling and in the status quo.
	BundlerHigh, BundlerLow     float64
	StatusQuoHigh, StatusQuoLow float64
}

// RunSec72Prio splits the web workload into two classes and gives one
// strict priority at the sendbox; the paper reports ~65 % lower median
// FCTs for the favored class.
func RunSec72Prio(seed int64, requests int) Sec72PrioResult {
	const highPort, lowPort = 8443, 80
	run := func(withBundler bool) (hi, lo float64) {
		n := NewNet(NetConfig{Seed: seed})
		var site *Site
		if withBundler {
			cfg := &bundle.Config{Algorithm: "copa"}
			cfg.Scheduler = SchedulerByName(n.Eng, "prio:8443", 1000)
			site = n.AddSite(cfg)
		} else {
			site = n.AddSite(nil)
		}
		// A latency-sensitive quarter of the load is favored over bulk
		// three quarters, the §7.2 setup's spirit.
		hiRec := site.RunOpenLoop(Traffic{OfferedBps: 21e6, Requests: requests / 4, DstPort: highPort})
		loRec := site.RunOpenLoop(Traffic{OfferedBps: 63e6, Requests: requests * 3 / 4, DstPort: lowPort})
		n.RunUntilDone(600*sim.Second, func() bool {
			return hiRec.Completed >= requests/4 && loRec.Completed >= requests*3/4
		})
		if site.SB != nil {
			site.SB.Stop()
		}
		return hiRec.Slowdowns.Median(), loRec.Slowdowns.Median()
	}
	var res Sec72PrioResult
	res.StatusQuoHigh, res.StatusQuoLow = run(false)
	res.BundlerHigh, res.BundlerLow = run(true)
	return res
}

// --- experiment adapter ---

// sec72Exp runs both §7.2 highlights: FQ-CoDel latency probes and strict
// priority.
type sec72Exp struct{}

func (sec72Exp) Name() string { return "sec72" }
func (sec72Exp) Desc() string {
	return "§7.2: other sendbox policies — FQ-CoDel probe RTTs and strict priority"
}
func (sec72Exp) Params() []exp.Param {
	return []exp.Param{
		requestsParam("15000"),
		{Name: "dur", Default: "20s", Help: "virtual time for the FQ-CoDel probe run"},
	}
}

func (e sec72Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	dur := sim.FromSeconds(b.Duration("dur").Seconds())
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	var w strings.Builder
	ReportHeader(&w, "§7.2: other sendbox policies")
	c := RunSec72CoDel(seed, dur)
	fmt.Fprintf(&w, "FQ-CoDel probe RTTs: status quo p50=%.1fms p99=%.1fms | bundler p50=%.1fms p99=%.1fms\n",
		c.StatusQuoMedianMs, c.StatusQuoP99Ms, c.BundlerMedianMs, c.BundlerP99Ms)
	pr := RunSec72Prio(seed, requests)
	fmt.Fprintf(&w, "strict priority: favored class p50 %.2f (status quo %.2f); other class p50 %.2f (status quo %.2f)\n",
		pr.BundlerHigh, pr.StatusQuoHigh, pr.BundlerLow, pr.StatusQuoLow)
	out := exp.Result{Experiment: "sec72", Seed: seed, Params: p, Report: w.String()}
	out.AddMetric("fqcodel/statusquo-probe-p50", c.StatusQuoMedianMs, "ms")
	out.AddMetric("fqcodel/bundler-probe-p50", c.BundlerMedianMs, "ms")
	out.AddMetric("prio/bundler-high-median", pr.BundlerHigh, "")
	out.AddMetric("prio/statusquo-high-median", pr.StatusQuoHigh, "")
	return out, nil
}
