package scenario

import (
	"fmt"

	"bundler/internal/exp"
	"bundler/internal/sim"
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
	run := func(alg string) (med, p99 float64) {
		n := newNet(netConfig{Seed: seed})
		site := n.AddSite(n.bundleConfig(alg, "fqcodel", 1000))
		pings := site.AddPings(10)
		site.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: 1 << 30})
		n.Eng.RunUntil(dur)
		site.Stop()
		all := probeSamples(pings, dur/4)
		return all.Median(), all.Quantile(0.99)
	}
	var res Sec72CoDelResult
	res.StatusQuoMedianMs, res.StatusQuoP99Ms = run("")
	res.BundlerMedianMs, res.BundlerP99Ms = run("copa")
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
	run := func(alg string) (hi, lo float64) {
		n := newNet(netConfig{Seed: seed})
		site := n.AddSite(n.bundleConfig(alg, "prio:8443", 1000))
		// A latency-sensitive quarter of the load is favored over bulk
		// three quarters, the §7.2 setup's spirit.
		hiRec := site.RunOpenLoop(Traffic{OfferedBps: 21e6, Requests: requests / 4, DstPort: highPort})
		loRec := site.RunOpenLoop(Traffic{OfferedBps: 63e6, Requests: requests * 3 / 4, DstPort: lowPort})
		n.RunUntilDone(600*sim.Second, func() bool {
			return hiRec.Completed >= requests/4 && loRec.Completed >= requests*3/4
		})
		site.Stop()
		return hiRec.Slowdowns.Median(), loRec.Slowdowns.Median()
	}
	var res Sec72PrioResult
	res.StatusQuoHigh, res.StatusQuoLow = run("")
	res.BundlerHigh, res.BundlerLow = run("copa")
	return res
}

// --- experiment body (the table is in experiments.go) ---

// sec72 runs both §7.2 highlights: FQ-CoDel latency probes and strict
// priority.
func sec72(r *exp.Run) error {
	requests := r.Int("requests")
	dur := simDuration(r, "dur")
	ReportHeader(r, "§7.2: other sendbox policies")
	c := RunSec72CoDel(r.Seed, dur)
	fmt.Fprintf(r, "FQ-CoDel probe RTTs: status quo p50=%.1fms p99=%.1fms | bundler p50=%.1fms p99=%.1fms\n",
		c.StatusQuoMedianMs, c.StatusQuoP99Ms, c.BundlerMedianMs, c.BundlerP99Ms)
	pr := RunSec72Prio(r.Seed, requests)
	fmt.Fprintf(r, "strict priority: favored class p50 %.2f (status quo %.2f); other class p50 %.2f (status quo %.2f)\n",
		pr.BundlerHigh, pr.StatusQuoHigh, pr.BundlerLow, pr.StatusQuoLow)
	r.AddMetric("fqcodel/statusquo-probe-p50", c.StatusQuoMedianMs, "ms")
	r.AddMetric("fqcodel/bundler-probe-p50", c.BundlerMedianMs, "ms")
	r.AddMetric("prio/bundler-high-median", pr.BundlerHigh, "")
	r.AddMetric("prio/statusquo-high-median", pr.StatusQuoHigh, "")
	return nil
}
