package scenario

import (
	"fmt"

	"bundler/internal/exp"
	"bundler/internal/pkt"
	"bundler/internal/sim"
	"bundler/internal/stats"
)

// AccuracyResult holds the Figure 5/6 microbenchmark: Bundler's RTT and
// receive-rate estimates against ground truth measured at the emulated
// bottleneck, across the paper's sweep of link delays (20/50/100 ms) and
// rates (24/48/96 Mbit/s).
type AccuracyResult struct {
	// RTTErrMs collects per-sample (estimate − actual) RTT differences.
	RTTErrMs stats.Sample
	// RateErrMbps collects per-sample receive-rate differences.
	RateErrMbps stats.Sample
	// WithinRTT is the fraction of RTT estimates within 1.2 ms (the
	// paper reports 80 %).
	WithinRTT float64
	// WithinRate is the fraction of rate estimates within 4 Mbit/s (the
	// paper reports 80 %).
	WithinRate float64
}

// RunMeasurementAccuracy reproduces the §4.5 microbenchmark. For each
// (delay, rate) configuration it drives the §7.1 web workload through a
// Bundler pair and compares every epoch estimate with the bottleneck's
// ground truth at that moment.
func RunMeasurementAccuracy(seed int64, perConfig sim.Time) AccuracyResult {
	var res AccuracyResult
	for _, rtt := range []sim.Time{20 * sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond} {
		for _, rate := range []float64{24e6, 48e6, 96e6} {
			collectAccuracy(seed, rate, rtt, perConfig, &res)
		}
	}
	res.WithinRTT = res.RTTErrMs.FractionWithin(1.2)
	res.WithinRate = res.RateErrMbps.FractionWithin(4)
	return res
}

func collectAccuracy(seed int64, rate float64, rtt, dur sim.Time, res *AccuracyResult) {
	n := newNet(netConfig{Seed: seed, LinkRate: rate, RTT: rtt})
	site := n.AddSite(defaultBundleConfig())
	// 87.5 % offered load, as in the evaluation's standard setup.
	site.RunOpenLoop(Traffic{OfferedBps: 0.875 * rate, Requests: 1 << 30})

	// Per-packet RTT ground truth: as each packet leaves the bottleneck
	// queue, record the queueing delay it actually experienced, keyed by
	// its epoch hash. When the sendbox later reports an RTT estimate for
	// that hash, the true value is base propagation + that packet's
	// queueing delay + its two serialization hops (pacer and bottleneck).
	truthQ := make(map[uint64]float64)
	// One serialization hop remains in the estimate (the bottleneck's);
	// the sendbox timestamps epoch packets after its own.
	serialMs := float64(pkt.MTU*8) / rate * 1e3
	n.Bottleneck.OnDequeue(func(p *pkt.Packet, qd sim.Time) {
		if p.Proto == pkt.ProtoCtl {
			return
		}
		truthQ[pkt.EpochHash(p)] = qd.Millis()
		if len(truthQ) > 1<<16 {
			truthQ = make(map[uint64]float64) // cheap bound; stale entries are re-recorded
		}
	})
	site.SB.OnEpochSample = func(hash uint64, est sim.Time, at sim.Time) {
		if at < sim.Second {
			return
		}
		if q, ok := truthQ[hash]; ok {
			actual := rtt.Millis() + q + serialMs
			res.RTTErrMs.Add(est.Millis() - actual)
		}
	}

	// Receive-rate ground truth: bottleneck delivered bytes over each
	// sampling interval, smoothed over one RTT when paired.
	var truthRate stats.TimeSeries
	var rc stats.RateCounter
	n.Eng.Tick(10*sim.Millisecond, func() {
		now := n.Eng.Now()
		truthRate.Add(now, rc.Rate(now, n.Bottleneck.BytesSent())/1e6)
	})
	n.Eng.RunUntil(dur)
	site.SB.Stop()

	for i, at := range site.SB.RateEstimates.T {
		if at < sim.Second {
			continue
		}
		actual := truthRate.MeanOver(at-rtt, at+10*sim.Millisecond)
		if actual == actual { // not NaN
			res.RateErrMbps.Add(site.SB.RateEstimates.V[i] - actual)
		}
	}
}

// --- experiment body (the table is in experiments.go) ---

// fig56 is the §4.5 measurement-accuracy microbenchmark.
func fig56(r *exp.Run) error {
	res := RunMeasurementAccuracy(r.Seed, simDuration(r, "dur"))
	ReportHeader(r, "Figures 5+6: measurement accuracy (9 configs: {20,50,100 ms} × {24,48,96 Mbit/s})")
	fmt.Fprintf(r, "RTT estimate error:  p10=%+.2fms p50=%+.2fms p90=%+.2fms  within ±1.2ms: %.0f%% (paper: 80%%)\n",
		res.RTTErrMs.Quantile(0.1), res.RTTErrMs.Quantile(0.5), res.RTTErrMs.Quantile(0.9), res.WithinRTT*100)
	fmt.Fprintf(r, "rate estimate error: p10=%+.2fMbps p50=%+.2fMbps p90=%+.2fMbps  within ±4Mbps: %.0f%% (paper: 80%%)\n",
		res.RateErrMbps.Quantile(0.1), res.RateErrMbps.Quantile(0.5), res.RateErrMbps.Quantile(0.9), res.WithinRate*100)
	r.AddMetric("rtt-err-p50", res.RTTErrMs.Quantile(0.5), "ms")
	r.AddMetric("rtt-within-1.2ms-frac", res.WithinRTT, "")
	r.AddMetric("rate-err-p50", res.RateErrMbps.Quantile(0.5), "Mbps")
	r.AddMetric("rate-within-4Mbps-frac", res.WithinRate, "")
	return nil
}
