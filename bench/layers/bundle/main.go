// Driver for the bundle layer: packets offered open-loop at 80 Mbit/s
// to a Sendbox (scheduler, pacer, epoch sampling, 10 ms control ticks)
// whose Receivebox acks epochs over a 50 ms round trip; the same through
// a MultiSendbox over 63 bundles, as one mesh64 site runs; and box
// construction and teardown. Cost is per data packet and includes the
// delay pipes that stand in for the network (netem.pipe_ns each way).
// bundle.sendbox_ns should move pkts_per_s on dumbbell_web (2 of its 4
// variants); classification, per-bundle ticks and set-up on mesh64.
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/bundle"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

const (
	ctlHost = 1 << 30
	dstBase = 1 << 20
	flows   = 64
	burst   = 64
	oneWay  = 25 * sim.Millisecond
	// gap spaces the bursts to offer 80 Mbit/s.
	gap = sim.Time(burst * pkt.MTU * 8 * float64(sim.Second) / 80e6)
)

// rig is n bundles between one source site and n destination sites.
type rig struct {
	eng   *sim.Engine
	in    netem.Receiver // the site's egress: the sendbox or multi-sendbox
	boxes []*bundle.Sendbox
	sent  int
}

func newRig(seed int64, bundles int) *rig {
	r := &rig{eng: sim.NewEngine(seed)}
	rbs := make([]*bundle.Receivebox, bundles)
	sink := &netem.Sink{}
	// Forward path: epoch-size updates go to their receivebox, data
	// passes its tap on the way into the destination site.
	forward := netem.NewPipe(r.eng, oneWay, netem.ReceiverFunc(func(p *pkt.Packet) {
		if p.Proto == pkt.ProtoCtl {
			rbs[p.Dst.Host-ctlHost].Receive(p)
			return
		}
		rbs[p.Dst.Host-dstBase].Observe(p)
		sink.Receive(p)
	}))
	reverse := netem.NewPipe(r.eng, oneWay, netem.ReceiverFunc(func(p *pkt.Packet) { r.in.Receive(p) }))
	for i := range rbs {
		sbCtl := pkt.Addr{Host: ctlHost + uint32(i), Port: 1}
		rbCtl := pkt.Addr{Host: ctlHost + uint32(i), Port: 2}
		r.boxes = append(r.boxes, bundle.NewSendbox(r.eng, bundle.Config{DisableTelemetry: true}, forward, sbCtl, rbCtl))
		rbs[i] = bundle.NewReceivebox(r.eng, reverse, rbCtl, sbCtl, 0)
	}
	if bundles == 1 {
		r.in = r.boxes[0]
	} else {
		r.in = bundle.NewMultiSendbox(func(p *pkt.Packet) int { return int(p.Dst.Host - dstBase) }, r.boxes...)
	}
	return r
}

// offer sends n packets in bursts, spread over the bundles and 64 flows.
func (r *rig) offer(n int) {
	for left := n; left > 0; {
		for i := 0; i < burst && left > 0; i++ {
			p := pkt.Get()
			f := uint32(r.sent % flows)
			p.Src = pkt.Addr{Host: 1<<16 + f, Port: 5000}
			p.Dst = pkt.Addr{Host: dstBase + uint32(r.sent%len(r.boxes)), Port: 80}
			p.FlowID = uint64(f) + 1
			p.IPID = uint16(r.sent / flows)
			p.Size = pkt.MTU
			r.in.Receive(p)
			r.sent++
			left--
		}
		r.eng.RunUntil(r.eng.Now() + gap)
	}
}

func main() {
	lb.Main(func(o lb.Out) error {
		one := newRig(lb.Seed, 1)
		one.offer(50000) // let the inner loop leave its 10 Mbit/s start
		o["bundle.sendbox_ns"], o["bundle.sendbox_allocs"] = lb.Time(one.offer)
		multi := newRig(lb.Seed, 63)
		multi.offer(50000)
		o["bundle.multisendbox_ns"], _ = lb.Time(multi.offer)

		eng := sim.NewEngine(lb.Seed)
		sink := &netem.Sink{}
		sbCtl, rbCtl := pkt.Addr{Host: ctlHost, Port: 1}, pkt.Addr{Host: ctlHost, Port: 2}
		ns, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				sb := bundle.NewSendbox(eng, bundle.Config{DisableTelemetry: true}, sink, sbCtl, rbCtl)
				bundle.NewReceivebox(eng, sink, rbCtl, sbCtl, 0)
				sb.Stop()
			}
			eng.Run() // pop the stopped tickers
		})
		o["bundle.box_setup_us"] = ns / 1e3
		return nil
	})
}
