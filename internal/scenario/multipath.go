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

// MultipathNet is a dumbbell whose bottleneck is a set of load-balanced
// parallel paths with (optionally) imbalanced delays — the §5.2 / §7.6
// topology: a Fabric whose one bundled Site forwards into the balancer.
type MultipathNet struct {
	Fabric
	*Site
	LB    *netem.LoadBalancer
	Paths []*netem.Link
}

// NewMultipathNet builds the topology: totalRate is split evenly across
// nPaths; path i adds i×skew of one-way delay on top of the base RTT/2.
// With skew 0 the paths are balanced.
func NewMultipathNet(seed int64, totalRate float64, rtt sim.Time, nPaths int, skew sim.Time, bcfg *bundle.Config) *MultipathNet {
	eng := sim.NewEngine(seed)
	m := &MultipathNet{Fabric: *NewFabric(eng, rtt)}
	if bcfg == nil {
		bcfg = DefaultBundleConfig()
	}
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
	m.Site = m.AddSiteAt(m.LB, bcfg)
	return m
}

// Fig7Result holds the multipath-visibility timeline: per-path true RTTs
// and the sendbox's epoch RTT estimates, whose spread (and out-of-order
// fraction) exposes the imbalance.
type Fig7Result struct {
	// PathRTTms is the true per-path RTT (propagation + queue) sampled
	// over time.
	PathRTTms []stats.TimeSeries
	// EstimateRTTms is the sendbox's observed epoch RTT series.
	EstimateRTTms stats.TimeSeries
	// OOOFraction at the end of the run.
	OOOFraction float64
	// Mode the sendbox ended in.
	Mode bundle.Mode
}

// RunFig7 reproduces Figure 7: many flows through 4 load-balanced paths
// with imbalanced delays. Bundler's measurements mix the paths; the
// out-of-order congestion-ACK fraction cleanly exposes the imbalance.
func RunFig7(seed int64, dur sim.Time) Fig7Result {
	m := NewMultipathNet(seed, 96e6, 10*sim.Millisecond, 4, 60*sim.Millisecond, nil)
	for i := 0; i < 40; i++ {
		m.AddFlow(1<<40, tcp.NewCubic(), nil)
	}
	res := Fig7Result{PathRTTms: make([]stats.TimeSeries, len(m.Paths))}
	m.Eng.Tick(100*sim.Millisecond, func() {
		now := m.Eng.Now()
		for i, p := range m.Paths {
			rtt := 2*p.Delay() + p.QueueDelay() // forward prop + queue, plus symmetric reverse
			res.PathRTTms[i].Add(now, rtt.Millis())
		}
	})
	m.Eng.RunUntil(dur)
	m.SB.Stop()
	res.EstimateRTTms = m.SB.RTTEstimates
	res.OOOFraction = m.SB.OOOFraction()
	res.Mode = m.SB.Mode()
	return res
}

// Sec76Point is one configuration of the §7.6 sweep.
type Sec76Point struct {
	RateMbps float64
	RTTms    float64
	Paths    int
	OOOFrac  float64
	Disabled bool
}

// RunSec76 reproduces the §7.6 robustness sweep: bandwidths 12–96 Mbit/s,
// RTTs 10–300 ms, and 1–32 load-balanced paths. Single-path runs must
// show near-zero out-of-order fractions; imbalanced multi-path runs must
// sit far above the 5 % threshold.
func RunSec76(seed int64, dur sim.Time) []Sec76Point {
	var out []Sec76Point
	for _, rate := range []float64{12e6, 48e6, 96e6} {
		for _, rtt := range []sim.Time{10 * sim.Millisecond, 100 * sim.Millisecond, 300 * sim.Millisecond} {
			for _, paths := range []int{1, 2, 8, 32} {
				skew := sim.Time(0)
				if paths > 1 {
					// Imbalance: spread one-way delays across ±50 % of
					// the base RTT.
					skew = rtt / sim.Time(paths)
				}
				m := NewMultipathNet(seed, rate, rtt, paths, skew, nil)
				for i := 0; i < 40; i++ {
					m.AddFlow(1<<40, tcp.NewCubic(), nil)
				}
				m.Eng.RunUntil(dur)
				m.SB.Stop()
				out = append(out, Sec76Point{
					RateMbps: rate / 1e6,
					RTTms:    rtt.Millis(),
					Paths:    paths,
					OOOFrac:  m.SB.OOOFraction(),
					Disabled: m.SB.Mode() == bundle.ModeDisabled,
				})
			}
		}
	}
	return out
}

// --- experiment bodies (the table is in experiments.go) ---

// fig7 shows multipath visibility through the OOO fraction.
func fig7(r *exp.Run) error {
	dur := simDuration(r, "dur")
	res := RunFig7(r.Seed, dur)
	ReportHeader(r, "Figure 7: imbalanced multipath visibility (4 paths)")
	for i, ts := range res.PathRTTms {
		mean := ts.MeanOver(0, dur)
		fmt.Fprintf(r, "path %d true RTT: %.1f ms (mean)\n", i+1, mean)
		r.AddMetric(fmt.Sprintf("path%d-rtt", i+1), mean, "ms")
	}
	fmt.Fprintf(r, "out-of-order congestion-ACK fraction: %.1f%% (threshold 5%%)\n", res.OOOFraction*100)
	fmt.Fprintf(r, "sendbox mode: %v\n", res.Mode)
	r.AddMetric("ooo-fraction", res.OOOFraction, "")
	r.AddMetric("mode", float64(res.Mode), "")
	return nil
}

// sec76 is the multipath-detection robustness sweep.
func sec76(r *exp.Run) error {
	points := RunSec76(r.Seed, simDuration(r, "dur"))
	ReportHeader(r, "§7.6: multipath detection sweep (paper: ≤0.4% single path, ≥20% multipath)")
	fmt.Fprintf(r, "%-10s %-8s %-8s %-10s %-8s\n", "rate Mb/s", "RTT ms", "paths", "OOO frac", "disabled")
	maxSingle, minMulti := 0.0, 1.0
	for _, pt := range points {
		fmt.Fprintf(r, "%-10.0f %-8.0f %-8d %-10.4f %-8v\n", pt.RateMbps, pt.RTTms, pt.Paths, pt.OOOFrac, pt.Disabled)
		if pt.Paths == 1 {
			maxSingle = max(maxSingle, pt.OOOFrac)
		} else {
			minMulti = min(minMulti, pt.OOOFrac)
		}
	}
	r.AddMetric("max-single-path-ooo", maxSingle, "")
	r.AddMetric("min-multi-path-ooo", minMulti, "")
	return nil
}
