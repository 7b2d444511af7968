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

// fig2 reproduces Figure 2: a single long-running flow, measured with
// and without Bundler. The queue moves from the bottleneck to the
// sendbox; throughput is preserved.
func fig2(r *exp.Run) error {
	dur := simDuration(r, "dur")
	artifacts := r.Bool("artifacts")
	// run samples the bottleneck and edge (sendbox) queueing delay in ms
	// every 100 ms, and returns the flow's throughput in Mbit/s.
	run := func(alg string, bn, edge *stats.TimeSeries) float64 {
		n := newNet(netConfig{Seed: r.Seed})
		site := n.addSite(n.bundleConfig(alg, "sfq", 1000))
		snd := site.AddFlow(1<<40, tcp.NewCubic(), nil)
		n.eng.Tick(100*sim.Millisecond, func() {
			bn.Add(n.eng.Now(), n.bottleneck.QueueDelay().Millis())
			if site.SB != nil {
				edge.Add(n.eng.Now(), site.SB.QueueDelay().Millis())
			} else {
				edge.Add(n.eng.Now(), 0)
			}
		})
		n.eng.RunUntil(dur)
		site.stop()
		return float64(snd.Acked()) * 8 / dur.Seconds() / 1e6
	}
	var sqBnTS, sqEdgeTS, bdBnTS, bdSBTS stats.TimeSeries
	sqTput := run("", &sqBnTS, &sqEdgeTS)
	bdTput := run("copa", &bdBnTS, &bdSBTS)
	sqBn := sqBnTS.MeanOver(dur/6, dur)
	sqEdge := sqEdgeTS.MeanOver(dur/6, dur)
	bdBn := bdBnTS.MeanOver(dur/6, dur)
	bdEdge := bdSBTS.MeanOver(dur/6, dur)

	ReportHeader(r, "Figure 2: queue shifting (single flow, 96 Mbit/s, 50 ms RTT)")
	fmt.Fprintf(r, "%-28s %-22s %-20s\n", "", "bottleneck queue (ms)", "edge/sendbox queue (ms)")
	fmt.Fprintf(r, "%-28s %-22.1f %-20.1f\n", "Status Quo", sqBn, sqEdge)
	fmt.Fprintf(r, "%-28s %-22.1f %-20.1f\n", "With Bundler", bdBn, bdEdge)
	fmt.Fprintf(r, "throughput: status quo %.1f Mbit/s, bundler %.1f Mbit/s\n", sqTput, bdTput)

	r.AddMetric("statusquo/bottleneck-queue", sqBn, "ms")
	r.AddMetric("bundler/bottleneck-queue", bdBn, "ms")
	r.AddMetric("bundler/sendbox-queue", bdEdge, "ms")
	r.AddMetric("statusquo/throughput", sqTput, "Mbps")
	r.AddMetric("bundler/throughput", bdTput, "Mbps")

	if !artifacts {
		return nil
	}
	return timelineArtifact(r, "fig2_queues.csv",
		[]string{"statusquo_bottleneck_ms", "bundler_bottleneck_ms", "bundler_sendbox_ms"},
		[]*stats.TimeSeries{&sqBnTS, &bdBnTS, &bdSBTS})
}

// fig10 reproduces Figure 10: 0–60 s no cross traffic, 60–120 s a
// buffer-filling (backlogged Cubic) cross flow, 120–180 s non-buffer-
// filling (web-like) cross traffic. Bundler must detect the buffer-filler,
// revert to pass-through, and re-engage afterward.
func fig10(r *exp.Run) error {
	artifacts := r.Bool("artifacts")
	const phaseDur = 60 * sim.Second
	n := newNet(netConfig{Seed: r.Seed})
	site := n.addSite(defaultBundleConfig())
	crossSite := n.addSite(nil)

	// Continuous bundle web traffic for the whole 180 s at the §7.1 load.
	recs := [3]*workload.Recorder{}
	for i := range recs {
		recs[i] = workload.NewRecorder(n.cfg.LinkRate, n.cfg.RTT)
	}
	phaseOf := func(t sim.Time) int {
		p := int(t / phaseDur)
		if p > 2 {
			p = 2
		}
		return p
	}
	workload.Arrivals(n.eng, workload.PaperWebCDF(), 84e6, 1<<30, func(size int64) {
		if n.eng.Now() >= 3*phaseDur {
			return
		}
		site.AddFlow(size, tcp.NewCubic(), func(sz int64, fct sim.Time) {
			if workload.ClassOf(sz) == workload.ClassSmall {
				recs[phaseOf(n.eng.Now())].Record(sz, fct)
			}
		})
	})

	// Phase 2: a buffer-filling cross flow from 60 s to 120 s.
	var crossSender *tcp.Sender
	clock.At(n.eng, phaseDur, func() {
		crossSender = crossSite.AddFlow(1<<40, tcp.NewCubic(), nil)
	})
	clock.At(n.eng, 2*phaseDur, func() { crossSender.Abort() })
	// Phase 3: non-buffer-filling web cross traffic at a quarter of the
	// link (the paper does not state the phase-3 offered load; a modest
	// one keeps the total near capacity rather than deep overload).
	clock.At(n.eng, 2*phaseDur, func() {
		workload.Arrivals(n.eng, workload.PaperWebCDF(), 24e6, 1<<30, func(size int64) {
			if n.eng.Now() >= 3*phaseDur {
				return
			}
			crossSite.AddFlow(size, tcp.NewCubic(), nil)
		})
	})

	// Mbit/s in 100 ms bins, queueing delay and sendbox mode, and per
	// phase how many of those ticks the sendbox spent in pass-through.
	var bundleTput, crossTput, queueMs, mode stats.TimeSeries
	var lastBundleBytes, lastCrossBytes int64
	var passTicks, totalTicks [3]int
	n.eng.Tick(100*sim.Millisecond, func() {
		now := n.eng.Now()
		p := phaseOf(now)
		bb := site.rb.BytesReceived()
		bundleTput.Add(now, float64(bb-lastBundleBytes)*8/0.1/1e6)
		lastBundleBytes = bb
		cb := n.bottleneck.BytesSent() - bb
		crossTput.Add(now, float64(cb-lastCrossBytes)*8/0.1/1e6)
		lastCrossBytes = cb
		queueMs.Add(now, n.bottleneck.QueueDelay().Millis())
		mode.Add(now, float64(site.SB.Mode()))
		totalTicks[p]++
		if site.SB.Mode() != 0 {
			passTicks[p]++
		}
	})
	n.eng.RunUntil(3 * phaseDur)
	site.SB.Stop()

	ReportHeader(r, "Figure 10: time-varying cross traffic (3 × 60 s phases)")
	fmt.Fprintf(r, "%-28s %12s %12s %10s %12s %14s\n",
		"phase", "bundle Mb/s", "cross Mb/s", "queue ms", "pass-through", "short-flow p50")
	labels := [3]string{"no cross traffic", "buffer-filling cross", "non-buffer-filling cross"}
	for i, label := range labels {
		from, to := sim.Time(i)*phaseDur, sim.Time(i+1)*phaseDur
		bundleMbps, crossMbps := bundleTput.MeanOver(from, to), crossTput.MeanOver(from, to)
		queue := queueMs.MeanOver(from, to)
		passFrac := float64(passTicks[i]) / float64(max(totalTicks[i], 1))
		shortP50 := recs[i].Slowdowns.Summarize().P50
		fmt.Fprintf(r, "%-28s %12.1f %12.1f %10.1f %11.0f%% %14.2f\n",
			label, bundleMbps, crossMbps, queue, passFrac*100, shortP50)
		prefix := strings.ReplaceAll(label, " ", "_") + "/"
		r.AddMetric(prefix+"bundle", bundleMbps, "Mbps")
		r.AddMetric(prefix+"cross", crossMbps, "Mbps")
		r.AddMetric(prefix+"queue", queue, "ms")
		r.AddMetric(prefix+"passthrough-frac", passFrac, "")
		r.AddMetric(prefix+"short-p50-slowdown", shortP50, "")
	}
	if !artifacts {
		return nil
	}
	return timelineArtifact(r, "fig10_timeline.csv",
		[]string{"bundle_mbps", "cross_mbps", "queue_ms", "mode"},
		[]*stats.TimeSeries{&bundleTput, &crossTput, &queueMs, &mode})
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
