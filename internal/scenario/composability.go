package scenario

import (
	"fmt"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// --- experiment body (the table is in experiments.go) ---

// hier is the §9 composability experiment: two department bundles nested
// in an institute bundle on the paper's dumbbell,
//
//	dept-A hosts ─► sendbox-A ─┐
//	                           ├─► institute sendbox ─► bottleneck ─► institute tap ─► dept tap ─► hosts
//	dept-B hosts ─► sendbox-B ─┘
//
// each department carrying five backlogged Cubic flows. All three inner
// loops run concurrently: the institute's delay control shifts the
// in-network queue to its sendbox, and each department schedules within
// its own sub-bundle.
func hier(r *exp.Run) error {
	dur := simDuration(r, "dur")
	n := newNet(netConfig{Seed: r.Seed})
	parent := n.addSite(&bundle.Config{})
	depts := [2]*Site{n.AddSiteIn(parent, &bundle.Config{}), n.AddSiteIn(parent, &bundle.Config{})}
	var flows [2][]*tcp.Sender
	for i, d := range depts {
		for range 5 {
			flows[i] = append(flows[i], d.AddFlow(1<<40, tcp.NewCubic(), nil))
		}
	}

	var bnQ, pQ, aQ float64
	var samples int
	n.eng.Tick(100*sim.Millisecond, func() {
		if n.eng.Now() < 5*sim.Second {
			return
		}
		bnQ += n.bottleneck.QueueDelay().Millis()
		pQ += parent.SB.QueueDelay().Millis()
		aQ += depts[0].SB.QueueDelay().Millis()
		samples++
	})
	n.eng.RunUntil(dur)
	parent.stop()
	var mbps [2]float64
	for i, d := range depts {
		d.stop()
		var acked int64
		for _, s := range flows[i] {
			acked += s.Acked()
		}
		mbps[i] = float64(acked) * 8 / dur.Seconds() / 1e6
	}
	samples = max(samples, 1)
	bnQ, pQ, aQ = bnQ/float64(samples), pQ/float64(samples), aQ/float64(samples)

	ReportHeader(r, "§9: hierarchical bundles (two departments nested in an institute)")
	fmt.Fprintf(r, "matched congestion ACKs: parent=%d dept-A=%d dept-B=%d\n",
		parent.SB.AcksMatched, depts[0].SB.AcksMatched, depts[1].SB.AcksMatched)
	fmt.Fprintf(r, "goodput: dept-A %.1f Mb/s, dept-B %.1f Mb/s\n", mbps[0], mbps[1])
	fmt.Fprintf(r, "queues: bottleneck %.1f ms, parent sendbox %.1f ms, dept-A sendbox %.1f ms\n", bnQ, pQ, aQ)
	r.AddMetric("parent-matched", float64(parent.SB.AcksMatched), "acks")
	r.AddMetric("deptA-matched", float64(depts[0].SB.AcksMatched), "acks")
	r.AddMetric("deptB-matched", float64(depts[1].SB.AcksMatched), "acks")
	r.AddMetric("deptA-Mbps", mbps[0], "Mbps")
	r.AddMetric("deptB-Mbps", mbps[1], "Mbps")
	r.AddMetric("bottleneck-queue", bnQ, "ms")
	r.AddMetric("parent-queue", pQ, "ms")
	return nil
}
