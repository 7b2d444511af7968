package scenario

import (
	"fmt"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// HierarchicalResult summarizes the §9 composability experiment: two
// departments (sub-sites), each running its own Bundler pair, nested
// inside a parent institute's Bundler pair.
type HierarchicalResult struct {
	// Matched congestion ACKs per control loop: proof each loop operates.
	ParentMatched, SubAMatched, SubBMatched int
	// Per-department goodput, Mbit/s.
	SubAMbps, SubBMbps float64
	// Mean bottleneck queueing delay, ms (should stay small: the parent
	// loop shifts it to the parent sendbox).
	BottleneckQueueMs float64
	// Parent and department sendbox queue means, ms.
	ParentQueueMs, SubAQueueMs float64
}

// RunHierarchical builds the nested topology the paper's §9 sketches:
//
//	dept-A hosts ─► subbox-A ─┐
//	                          ├─► parentbox ─► bottleneck ─► parent tap ─► sub taps ─► hosts
//	dept-B hosts ─► subbox-B ─┘
//
// Each department bundles its traffic to its counterpart department; the
// institute bundles the aggregate. All three inner loops run concurrently;
// the parent's delay control shifts the in-network queue to the parent
// sendbox, and each department schedules within its own sub-bundle.
func RunHierarchical(seed int64, dur sim.Time) HierarchicalResult {
	eng := sim.NewEngine(seed)
	muxA, muxB := tcp.NewMux(), tcp.NewMux()
	const rate, rtt = 96e6, 50 * sim.Millisecond
	demux := netem.NewDemux()
	bottleneck := netem.NewLink(eng, "bottleneck", rate, rtt/2, qdisc.NewFIFO(netem.BDPBuffer(rate, rtt)), demux)
	reverse := netem.NewReverseLink(eng, rtt, muxA)

	ctl := func(host uint32, port uint16) pkt.Addr { return pkt.Addr{Host: host, Port: port} }

	// Parent pair.
	parentSB := bundle.NewSendbox(eng, bundle.Config{}, bottleneck, ctl(1<<30, 1), ctl(1<<30, 2))
	parentRB := bundle.NewReceivebox(eng, reverse, ctl(1<<30, 2), ctl(1<<30, 1), 0)
	muxA.Register(ctl(1<<30, 1), parentSB)
	muxB.Register(ctl(1<<30, 2), parentRB)

	// Department pairs: their sendboxes feed the parent sendbox; their
	// receiveboxes tap behind the parent's tap.
	subASB := bundle.NewSendbox(eng, bundle.Config{}, parentSB, ctl(1<<30+1, 1), ctl(1<<30+1, 2))
	subARB := bundle.NewReceivebox(eng, reverse, ctl(1<<30+1, 2), ctl(1<<30+1, 1), 0)
	subBSB := bundle.NewSendbox(eng, bundle.Config{}, parentSB, ctl(1<<30+2, 1), ctl(1<<30+2, 2))
	subBRB := bundle.NewReceivebox(eng, reverse, ctl(1<<30+2, 2), ctl(1<<30+2, 1), 0)
	muxA.Register(ctl(1<<30+1, 1), subASB)
	muxA.Register(ctl(1<<30+2, 1), subBSB)
	muxB.Register(ctl(1<<30+1, 2), subARB)
	muxB.Register(ctl(1<<30+2, 2), subBRB)

	// Destination-side tap chain: parent observes everything, then the
	// right department's receivebox observes its own half.
	subATap := netem.NewTap(subARB.Observe, muxB)
	subBTap := netem.NewTap(subBRB.Observe, muxB)
	// Department membership by destination host parity.
	deptMux := netem.ReceiverFunc(func(p *pkt.Packet) {
		if p.Dst.Host%2 == 0 {
			subATap.Receive(p)
		} else {
			subBTap.Receive(p)
		}
	})
	demux.Default = netem.NewTap(parentRB.Observe, deptMux)
	// Control addresses must bypass the parity split.
	for _, a := range []pkt.Addr{ctl(1<<30, 2), ctl(1<<30+1, 2), ctl(1<<30+2, 2)} {
		demux.Route(a.Host, muxB)
	}

	// Backlogged flows per department (even dst hosts = dept A).
	var next uint32 = 1 << 16
	addFlow := func(sb *bundle.Sendbox, even bool) *tcp.Sender {
		src := pkt.Addr{Host: next, Port: 5000}
		next++
		dst := pkt.Addr{Host: next, Port: 80}
		next++
		if even != (dst.Host%2 == 0) {
			dst.Host++
			next++
		}
		flowID := uint64(dst.Host)
		s := tcp.NewSender(eng, sb, src, dst, flowID, 1<<40, tcp.NewCubic(), nil)
		r := tcp.NewReceiver(eng, reverse, dst, src, flowID, 1<<40, nil)
		muxA.Register(src, s)
		muxB.Register(dst, r)
		s.Start()
		return s
	}
	var aFlows, bFlows []*tcp.Sender
	for i := 0; i < 5; i++ {
		aFlows = append(aFlows, addFlow(subASB, true))
		bFlows = append(bFlows, addFlow(subBSB, false))
	}

	var bnQ, pQ, aQ float64
	var samples int
	eng.Tick(100*sim.Millisecond, func() {
		if eng.Now() < 5*sim.Second {
			return
		}
		bnQ += bottleneck.QueueDelay().Millis()
		pQ += parentSB.QueueDelay().Millis()
		aQ += subASB.QueueDelay().Millis()
		samples++
	})
	eng.RunUntil(dur)
	parentSB.Stop()
	subASB.Stop()
	subBSB.Stop()

	var res HierarchicalResult
	res.ParentMatched = parentSB.AcksMatched
	res.SubAMatched = subASB.AcksMatched
	res.SubBMatched = subBSB.AcksMatched
	for _, s := range aFlows {
		res.SubAMbps += float64(s.Acked()) * 8 / dur.Seconds() / 1e6
	}
	for _, s := range bFlows {
		res.SubBMbps += float64(s.Acked()) * 8 / dur.Seconds() / 1e6
	}
	if samples > 0 {
		res.BottleneckQueueMs = bnQ / float64(samples)
		res.ParentQueueMs = pQ / float64(samples)
		res.SubAQueueMs = aQ / float64(samples)
	}
	return res
}

// --- experiment body (the table is in experiments.go) ---

// hier is the §9 composability experiment: nested Bundler pairs.
func hier(r *exp.Run) error {
	res := RunHierarchical(r.Seed, simDuration(r, "dur"))
	ReportHeader(r, "§9: hierarchical bundles (two departments nested in an institute)")
	fmt.Fprintf(r, "matched congestion ACKs: parent=%d dept-A=%d dept-B=%d\n",
		res.ParentMatched, res.SubAMatched, res.SubBMatched)
	fmt.Fprintf(r, "goodput: dept-A %.1f Mb/s, dept-B %.1f Mb/s\n", res.SubAMbps, res.SubBMbps)
	fmt.Fprintf(r, "queues: bottleneck %.1f ms, parent sendbox %.1f ms, dept-A sendbox %.1f ms\n",
		res.BottleneckQueueMs, res.ParentQueueMs, res.SubAQueueMs)
	r.AddMetric("parent-matched", float64(res.ParentMatched), "acks")
	r.AddMetric("deptA-Mbps", res.SubAMbps, "Mbps")
	r.AddMetric("deptB-Mbps", res.SubBMbps, "Mbps")
	r.AddMetric("bottleneck-queue", res.BottleneckQueueMs, "ms")
	r.AddMetric("parent-queue", res.ParentQueueMs, "ms")
	return nil
}
