package scenario

import (
	"fmt"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
)

// multipathNet is a dumbbell whose bottleneck is a set of load-balanced
// parallel paths with (optionally) imbalanced delays — the §5.2 / §7.6
// topology: a Fabric whose one bundled Site forwards into the balancer.
type multipathNet struct {
	Fabric
	*Site
	LB    *netem.LoadBalancer
	Paths []*netem.Link
}

// newMultipathNet builds the topology: totalRate is split evenly across
// nPaths; path i adds i×skew of one-way delay on top of the base RTT/2.
// With skew 0 the paths are balanced.
func newMultipathNet(seed int64, totalRate float64, rtt sim.Time, nPaths int, skew sim.Time) *multipathNet {
	eng := sim.NewEngine(seed)
	m := &multipathNet{Fabric: *NewFabric(eng, rtt)}
	perPath := totalRate / float64(nPaths)
	buf := max(netem.BDPBuffer(perPath, rtt), 40*pkt.MTU)
	var heads []netem.Receiver
	for i := 0; i < nPaths; i++ {
		delay := rtt/2 + sim.Time(i)*skew
		l := netem.NewLink(eng, "path", perPath, delay, qdisc.NewFIFO(buf), m.Demux)
		m.Paths = append(m.Paths, l)
		heads = append(heads, l)
	}
	m.LB = netem.NewLoadBalancer(heads...)
	m.Site = m.AddSiteAt(m.LB, defaultBundleConfig())
	return m
}

// --- experiment bodies (the table is in experiments.go) ---

// fig7 reproduces Figure 7: many flows through 4 load-balanced paths
// with imbalanced delays. Bundler's measurements mix the paths; the
// out-of-order congestion-ACK fraction cleanly exposes the imbalance.
func fig7(r *exp.Run) error {
	dur := simDuration(r, "dur")
	m := newMultipathNet(r.Seed, 96e6, 10*sim.Millisecond, 4, 60*sim.Millisecond)
	for i := 0; i < 40; i++ {
		m.AddFlow(1<<40, tcp.NewCubic(), nil)
	}
	// The true per-path RTT (propagation + queue), sampled over time.
	pathRTTms := make([]stats.TimeSeries, len(m.Paths))
	m.Eng.Tick(100*sim.Millisecond, func() {
		now := m.Eng.Now()
		for i, p := range m.Paths {
			rtt := 2*p.Delay() + p.QueueDelay() // forward prop + queue, plus symmetric reverse
			pathRTTms[i].Add(now, rtt.Millis())
		}
	})
	m.Eng.RunUntil(dur)
	m.SB.Stop()
	ooo, mode := m.SB.OOOFraction(), m.SB.Mode()

	ReportHeader(r, "Figure 7: imbalanced multipath visibility (4 paths)")
	for i, ts := range pathRTTms {
		mean := ts.MeanOver(0, dur)
		fmt.Fprintf(r, "path %d true RTT: %.1f ms (mean)\n", i+1, mean)
		r.AddMetric(fmt.Sprintf("path%d-rtt", i+1), mean, "ms")
	}
	fmt.Fprintf(r, "out-of-order congestion-ACK fraction: %.1f%% (threshold 5%%)\n", ooo*100)
	fmt.Fprintf(r, "sendbox mode: %v\n", mode)
	r.AddMetric("ooo-fraction", ooo, "")
	r.AddMetric("mode", float64(mode), "")
	return nil
}

// sec76 reproduces the §7.6 robustness sweep: bandwidths 12–96 Mbit/s,
// RTTs 10–300 ms, and 1–32 load-balanced paths. Single-path runs must
// show near-zero out-of-order fractions; imbalanced multi-path runs must
// sit far above the 5 % threshold.
func sec76(r *exp.Run) error {
	dur := simDuration(r, "dur")
	ReportHeader(r, "§7.6: multipath detection sweep (paper: ≤0.4% single path, ≥20% multipath)")
	fmt.Fprintf(r, "%-10s %-8s %-8s %-10s %-8s\n", "rate Mb/s", "RTT ms", "paths", "OOO frac", "disabled")
	maxSingle, minMulti := 0.0, 1.0
	for _, rate := range []float64{12e6, 48e6, 96e6} {
		for _, rtt := range []sim.Time{10 * sim.Millisecond, 100 * sim.Millisecond, 300 * sim.Millisecond} {
			for _, paths := range []int{1, 2, 8, 32} {
				skew := sim.Time(0)
				if paths > 1 {
					// Imbalance: spread one-way delays across ±50 % of
					// the base RTT.
					skew = rtt / sim.Time(paths)
				}
				m := newMultipathNet(r.Seed, rate, rtt, paths, skew)
				for i := 0; i < 40; i++ {
					m.AddFlow(1<<40, tcp.NewCubic(), nil)
				}
				m.Eng.RunUntil(dur)
				m.SB.Stop()
				ooo := m.SB.OOOFraction()
				fmt.Fprintf(r, "%-10.0f %-8.0f %-8d %-10.4f %-8v\n",
					rate/1e6, rtt.Millis(), paths, ooo, m.SB.Mode() == bundle.ModeDisabled)
				if paths == 1 {
					maxSingle = max(maxSingle, ooo)
				} else {
					minMulti = min(minMulti, ooo)
				}
			}
		}
	}
	r.AddMetric("max-single-path-ooo", maxSingle, "")
	r.AddMetric("min-multi-path-ooo", minMulti, "")
	return nil
}
