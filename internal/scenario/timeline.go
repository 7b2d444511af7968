package scenario

import (
	"fmt"
	"io"
	"strings"

	"bundler/internal/clock"
	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

// QueueShiftResult holds the Figure 2 traces: where queueing delay lives
// over time, with and without Bundler.
type QueueShiftResult struct {
	// StatusQuoBottleneck is the bottleneck queueing delay (ms) without
	// Bundler.
	StatusQuoBottleneck stats.TimeSeries
	// StatusQuoEdge is the (empty) edge queue without Bundler.
	StatusQuoEdge stats.TimeSeries
	// BundlerBottleneck is the bottleneck queueing delay with Bundler.
	BundlerBottleneck stats.TimeSeries
	// BundlerSendbox is the sendbox queueing delay with Bundler.
	BundlerSendbox stats.TimeSeries
	// Throughputs in Mbit/s over the run.
	StatusQuoThroughput, BundlerThroughput float64
}

// RunQueueShift reproduces Figure 2: a single long-running flow, measured
// with and without Bundler. The queue moves from the bottleneck to the
// sendbox; throughput is preserved.
func RunQueueShift(seed int64, dur sim.Time) QueueShiftResult {
	var res QueueShiftResult
	run := func(alg string, bn, edge *stats.TimeSeries) float64 {
		n := NewNet(NetConfig{Seed: seed})
		site := n.AddSite(n.bundleConfig(alg, "sfq", 1000))
		snd := site.AddFlow(1<<40, tcp.NewCubic(), nil)
		n.Eng.Tick(100*sim.Millisecond, func() {
			bn.Add(n.Eng.Now(), n.Bottleneck.QueueDelay().Millis())
			if site.SB != nil {
				edge.Add(n.Eng.Now(), site.SB.QueueDelay().Millis())
			} else {
				edge.Add(n.Eng.Now(), 0)
			}
		})
		n.Eng.RunUntil(dur)
		site.Stop()
		return float64(snd.Acked()) * 8 / dur.Seconds() / 1e6
	}
	res.StatusQuoThroughput = run("", &res.StatusQuoBottleneck, &res.StatusQuoEdge)
	res.BundlerThroughput = run("copa", &res.BundlerBottleneck, &res.BundlerSendbox)
	return res
}

// Fig10Phase summarizes one third of the Figure 10 timeline.
type Fig10Phase struct {
	Label string
	// ShortFlowSlowdowns of bundle flows completing in this phase.
	ShortFlowSlowdowns stats.Summary
	// BundleMbps and CrossMbps are mean throughputs over the phase.
	BundleMbps, CrossMbps float64
	// MeanQueueMs is the mean in-network queueing delay.
	MeanQueueMs float64
	// PassThroughFrac is the fraction of the phase the sendbox spent in
	// pass-through (buffer-filling cross traffic) mode.
	PassThroughFrac float64
}

// Fig10Result is the full timeline plus phase summaries.
type Fig10Result struct {
	BundleTput stats.TimeSeries // Mbit/s, 100 ms bins
	CrossTput  stats.TimeSeries
	QueueMs    stats.TimeSeries
	Mode       stats.TimeSeries
	Phases     [3]Fig10Phase
}

// RunFig10 reproduces Figure 10: 0–60 s no cross traffic, 60–120 s a
// buffer-filling (backlogged Cubic) cross flow, 120–180 s non-buffer-
// filling (web-like) cross traffic. Bundler must detect the buffer-filler,
// revert to pass-through, and re-engage afterward.
func RunFig10(seed int64) Fig10Result {
	const phaseDur = 60 * sim.Second
	n := NewNet(NetConfig{Seed: seed})
	site := n.AddSite(DefaultBundleConfig())
	crossSite := n.AddSite(nil)

	// Continuous bundle web traffic for the whole 180 s at the §7.1 load.
	recs := [3]*workload.Recorder{}
	for i := range recs {
		recs[i] = workload.NewRecorder(n.Cfg.LinkRate, n.Cfg.RTT)
	}
	phaseOf := func(t sim.Time) int {
		p := int(t / phaseDur)
		if p > 2 {
			p = 2
		}
		return p
	}
	workload.Arrivals(n.Eng, workload.PaperWebCDF(), 84e6, 1<<30, func(size int64) {
		if n.Eng.Now() >= 3*phaseDur {
			return
		}
		site.AddFlow(size, tcp.NewCubic(), func(sz int64, fct sim.Time) {
			if workload.ClassOf(sz) == workload.ClassSmall {
				recs[phaseOf(n.Eng.Now())].Record(sz, fct)
			}
		})
	})

	// Phase 2: a buffer-filling cross flow from 60 s to 120 s.
	var crossSender *tcp.Sender
	clock.At(n.Eng, phaseDur, func() {
		crossSender = crossSite.AddFlow(1<<40, tcp.NewCubic(), nil)
	})
	clock.At(n.Eng, 2*phaseDur, func() { crossSender.Abort() })
	// Phase 3: non-buffer-filling web cross traffic at a quarter of the
	// link (the paper does not state the phase-3 offered load; a modest
	// one keeps the total near capacity rather than deep overload).
	clock.At(n.Eng, 2*phaseDur, func() {
		workload.Arrivals(n.Eng, workload.PaperWebCDF(), 24e6, 1<<30, func(size int64) {
			if n.Eng.Now() >= 3*phaseDur {
				return
			}
			crossSite.AddFlow(size, tcp.NewCubic(), nil)
		})
	})

	var res Fig10Result
	var lastBundleBytes, lastCrossBytes int64
	var passTicks, totalTicks [3]int
	n.Eng.Tick(100*sim.Millisecond, func() {
		now := n.Eng.Now()
		p := phaseOf(now)
		bb := site.RB.BytesReceived()
		res.BundleTput.Add(now, float64(bb-lastBundleBytes)*8/0.1/1e6)
		lastBundleBytes = bb
		cb := n.Bottleneck.BytesSent() - bb
		res.CrossTput.Add(now, float64(cb-lastCrossBytes)*8/0.1/1e6)
		lastCrossBytes = cb
		res.QueueMs.Add(now, n.Bottleneck.QueueDelay().Millis())
		res.Mode.Add(now, float64(site.SB.Mode()))
		totalTicks[p]++
		if site.SB.Mode() != 0 {
			passTicks[p]++
		}
	})
	n.Eng.RunUntil(3 * phaseDur)
	site.SB.Stop()

	labels := [3]string{"no cross traffic", "buffer-filling cross", "non-buffer-filling cross"}
	for i := 0; i < 3; i++ {
		from, to := sim.Time(i)*phaseDur, sim.Time(i+1)*phaseDur
		res.Phases[i] = Fig10Phase{
			Label:              labels[i],
			ShortFlowSlowdowns: recs[i].Slowdowns.Summarize(),
			BundleMbps:         res.BundleTput.MeanOver(from, to),
			CrossMbps:          res.CrossTput.MeanOver(from, to),
			MeanQueueMs:        res.QueueMs.MeanOver(from, to),
			PassThroughFrac:    float64(passTicks[i]) / float64(max(totalTicks[i], 1)),
		}
	}
	return res
}

// --- experiment bodies (the table is in experiments.go) ---

// timelineArtifact attaches the series as one CSV artifact.
func timelineArtifact(r *exp.Run, file string, names []string, series []*stats.TimeSeries) error {
	var csv strings.Builder
	if err := writeTimeSeries(&csv, names, series); err != nil {
		return err
	}
	r.Artifacts = append(r.Artifacts, exp.Artifact{Name: file, Data: csv.String()})
	return nil
}

// fig2 shows the queue moving from the bottleneck to the sendbox.
func fig2(r *exp.Run) error {
	dur := simDuration(r, "dur")
	artifacts := r.Bool("artifacts")
	res := RunQueueShift(r.Seed, dur)
	sqBn := res.StatusQuoBottleneck.MeanOver(dur/6, dur)
	sqEdge := res.StatusQuoEdge.MeanOver(dur/6, dur)
	bdBn := res.BundlerBottleneck.MeanOver(dur/6, dur)
	bdEdge := res.BundlerSendbox.MeanOver(dur/6, dur)

	ReportHeader(r, "Figure 2: queue shifting (single flow, 96 Mbit/s, 50 ms RTT)")
	fmt.Fprintf(r, "%-28s %-22s %-20s\n", "", "bottleneck queue (ms)", "edge/sendbox queue (ms)")
	fmt.Fprintf(r, "%-28s %-22.1f %-20.1f\n", "Status Quo", sqBn, sqEdge)
	fmt.Fprintf(r, "%-28s %-22.1f %-20.1f\n", "With Bundler", bdBn, bdEdge)
	fmt.Fprintf(r, "throughput: status quo %.1f Mbit/s, bundler %.1f Mbit/s\n",
		res.StatusQuoThroughput, res.BundlerThroughput)

	r.AddMetric("statusquo/bottleneck-queue", sqBn, "ms")
	r.AddMetric("bundler/bottleneck-queue", bdBn, "ms")
	r.AddMetric("bundler/sendbox-queue", bdEdge, "ms")
	r.AddMetric("statusquo/throughput", res.StatusQuoThroughput, "Mbps")
	r.AddMetric("bundler/throughput", res.BundlerThroughput, "Mbps")

	if !artifacts {
		return nil
	}
	return timelineArtifact(r, "fig2_queues.csv",
		[]string{"statusquo_bottleneck_ms", "bundler_bottleneck_ms", "bundler_sendbox_ms"},
		[]*stats.TimeSeries{&res.StatusQuoBottleneck, &res.BundlerBottleneck, &res.BundlerSendbox})
}

// fig10 runs the time-varying cross-traffic timeline.
func fig10(r *exp.Run) error {
	artifacts := r.Bool("artifacts")
	res := RunFig10(r.Seed)
	ReportHeader(r, "Figure 10: time-varying cross traffic (3 × 60 s phases)")
	fmt.Fprintf(r, "%-28s %12s %12s %10s %12s %14s\n",
		"phase", "bundle Mb/s", "cross Mb/s", "queue ms", "pass-through", "short-flow p50")
	for _, ph := range res.Phases {
		fmt.Fprintf(r, "%-28s %12.1f %12.1f %10.1f %11.0f%% %14.2f\n",
			ph.Label, ph.BundleMbps, ph.CrossMbps, ph.MeanQueueMs, ph.PassThroughFrac*100, ph.ShortFlowSlowdowns.P50)
		prefix := strings.ReplaceAll(ph.Label, " ", "_") + "/"
		r.AddMetric(prefix+"bundle", ph.BundleMbps, "Mbps")
		r.AddMetric(prefix+"cross", ph.CrossMbps, "Mbps")
		r.AddMetric(prefix+"queue", ph.MeanQueueMs, "ms")
		r.AddMetric(prefix+"passthrough-frac", ph.PassThroughFrac, "")
		r.AddMetric(prefix+"short-p50-slowdown", ph.ShortFlowSlowdowns.P50, "")
	}
	if !artifacts {
		return nil
	}
	return timelineArtifact(r, "fig10_timeline.csv",
		[]string{"bundle_mbps", "cross_mbps", "queue_ms", "mode"},
		[]*stats.TimeSeries{&res.BundleTput, &res.CrossTput, &res.QueueMs, &res.Mode})
}

// writeTimeSeries writes one or more aligned-by-row time series as CSV
// for external plotting: a time column (seconds of virtual time) per
// series followed by its values. Series may have different lengths;
// short columns are left empty.
func writeTimeSeries(w io.Writer, names []string, series []*stats.TimeSeries) error {
	if len(names) != len(series) {
		return fmt.Errorf("scenario: %d names for %d series", len(names), len(series))
	}
	header := make([]string, 0, 2*len(names))
	rows := 0
	for i, n := range names {
		header = append(header, n+"_t", n+"_v")
		if series[i].N() > rows {
			rows = series[i].N()
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for r := 0; r < rows; r++ {
		cells := make([]string, 0, 2*len(series))
		for _, s := range series {
			if r < s.N() {
				cells = append(cells,
					fmt.Sprintf("%.6f", s.T[r].Seconds()),
					fmt.Sprintf("%.6f", s.V[r]))
			} else {
				cells = append(cells, "", "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
