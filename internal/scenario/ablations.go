package scenario

import (
	"fmt"
	"strings"

	"bundler/internal/bundle"
	"bundler/internal/ccalg"
	"bundler/internal/exp"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// ablationDur is how long the fixed-duration ablations run; the rate
// variance is taken after ablationSettle, once the rate has converged.
const (
	ablationDur    = 20 * sim.Second
	ablationSettle = 5 * sim.Second
)

// matchedFrac is the share of epoch acks the sendbox matched to an
// epoch it had sampled, out of all it saw.
func matchedFrac(sb *bundle.Sendbox) float64 {
	total := sb.AcksMatched + sb.AcksSpurious
	if total == 0 {
		return 0
	}
	return float64(sb.AcksMatched) / float64(total)
}

// runAblation builds one bundle from the default config after tweak,
// offers it load, and runs it for ablationDur.
func runAblation(seed int64, tweak func(*bundle.Config), load func(*Site)) *Site {
	n := newNet(netConfig{Seed: seed})
	cfg := defaultBundleConfig()
	tweak(cfg)
	site := n.addSite(cfg)
	load(site)
	n.eng.RunUntil(ablationDur)
	site.SB.Stop()
	return site
}

// bulkFlow loads a site with one backlogged Cubic flow.
func bulkFlow(s *Site) *tcp.Sender { return s.AddFlow(1<<40, tcp.NewCubic(), nil) }

// epochRoundingAblation compares power-of-two epoch rounding (resilient
// to epoch-update loss) against exact sizing, under the web workload.
func epochRoundingAblation(seed int64, exact bool) float64 {
	site := runAblation(seed,
		func(c *bundle.Config) { c.ExactEpochSize = exact },
		func(s *Site) { s.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: 1 << 30}) })
	return matchedFrac(site.SB)
}

// windowAblation compares the 1-RTT measurement window against
// near-single-epoch operation: the wider window trades reaction speed
// for a steadier rate signal. It returns the variance of the applied
// pacing rate (Mbit/s) after convergence, sampled every control tick:
// the sampler starts after the box's own ticker, so at each instant it
// reads the rate that tick just set.
func windowAblation(seed int64, windowRTTs float64) float64 {
	var rates []float64
	runAblation(seed,
		func(c *bundle.Config) { c.MeasurementWindowRTTs = windowRTTs },
		func(s *Site) {
			bulkFlow(s)
			eng := s.net.eng
			eng.Tick(10*sim.Millisecond, func() {
				if eng.Now() > ablationSettle {
					rates = append(rates, s.SB.Rate()/1e6)
				}
			})
		})
	var sum float64
	for _, r := range rates {
		sum += r
	}
	c := float64(len(rates))
	mean := sum / c
	var v float64
	for _, r := range rates {
		d := r - mean
		v += d * d
	}
	return v / c
}

// piGainsAblation drives the §5.1 PI controller with gains alpha, beta
// (the paper's are 10, 10) against a fluid queue fed at the link rate,
// and returns the steady-state queue-delay error in ms.
func piGainsAblation(alpha, beta float64) float64 {
	pi := ccalg.NewPIController()
	pi.Alpha, pi.Beta = alpha, beta
	const mu, arrival = 96e6, 96e6
	var qBits float64
	var now, lastQ sim.Time
	pi.Reset(mu, now)
	for i := 0; i < 2000; i++ {
		now += 10 * sim.Millisecond
		qBits += (arrival - pi.Rate()) * 0.01
		if qBits < 0 {
			qBits = 0
		}
		lastQ = sim.Time(qBits / mu * float64(sim.Second))
		pi.Update(lastQ, mu, now)
	}
	return (lastQ - pi.Target).Seconds() * 1000
}

// sfqBucketsAblation compares sendbox SFQ bucket counts: too few buckets
// collide flows and lose isolation. It returns the median slowdown.
func sfqBucketsAblation(seed int64, requests, buckets int) float64 {
	n := newNet(netConfig{Seed: seed})
	site := n.addSite(&bundle.Config{Algorithm: "copa", Scheduler: qdisc.NewSFQ(buckets, 1000)})
	rec := site.RunOpenLoop(Traffic{OfferedBps: 84e6, Requests: requests})
	n.RunUntilDone(300*sim.Second, rec)
	site.SB.Stop()
	return rec.Slowdowns.Median()
}

// tunnelAblation compares hash-based epoch identification (the §4.5
// default) against the explicit encapsulation variant: tunnel mode
// eliminates spurious matches at the cost of per-packet overhead.
func tunnelAblation(seed int64, tunnel bool) (matched, goodputMbps float64) {
	var snd *tcp.Sender
	site := runAblation(seed,
		func(c *bundle.Config) { c.TunnelMode = tunnel },
		func(s *Site) { snd = bulkFlow(s) })
	return matchedFrac(site.SB), float64(snd.Acked()) * 8 / ablationDur.Seconds() / 1e6
}

// ablations switches off, one at a time, the design choices §4–§5 call
// out and reports what each one buys.
func ablations(r *exp.Run) error {
	seed, requests := r.Seed, r.Int("requests")
	ReportHeader(r, "Ablations: one design choice switched off at a time")
	section := func(title string) { fmt.Fprintln(r, title) }
	add := func(name string, v float64, unit string) {
		r.AddMetric(name, v, unit)
		fmt.Fprintln(r, strings.TrimRight(fmt.Sprintf("  %-26s %10.4g %s", name, v, unit), " "))
	}

	section("Epoch size rounding (§4.5): power-of-two vs exact")
	add("rounded-matched-frac", epochRoundingAblation(seed, false), "")
	add("exact-matched-frac", epochRoundingAblation(seed, true), "")

	section("Measurement window (§4.5): 1 RTT vs a quarter RTT, pacing-rate variance")
	add("window-1rtt-rate-var", windowAblation(seed, 1), "")
	add("window-quarter-rate-var", windowAblation(seed, 0.25), "")

	section("PI controller gains (§5.1): steady-state queue-delay error")
	add("paper-gains-err-ms", piGainsAblation(10, 10), "ms")
	add("low-gains-err-ms", piGainsAblation(1, 1), "ms")
	add("high-gains-err-ms", piGainsAblation(100, 100), "ms")

	section(fmt.Sprintf("Sendbox SFQ buckets: median slowdown over %d requests", requests))
	add("sfq1024-median", sfqBucketsAblation(seed, requests, 1024), "")
	add("sfq16-median", sfqBucketsAblation(seed, requests, 16), "")

	section("Epoch identification (§4.5): header hash vs tunnel encapsulation")
	for _, m := range []struct {
		label  string
		tunnel bool
	}{{"hash", false}, {"tunnel", true}} {
		matched, goodput := tunnelAblation(seed, m.tunnel)
		add(m.label+"-matched-frac", matched, "")
		add(m.label+"-goodput-Mbps", goodput, "Mbps")
	}
	return nil
}
