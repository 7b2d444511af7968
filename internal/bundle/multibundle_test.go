package bundle

import (
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// TestMultiSendboxTwoBundles builds one physical box carrying two bundles
// to two destination sites over a shared bottleneck (§9). Each bundle's
// inner loop must operate independently, and both should see their queues
// controlled.
func TestMultiSendboxTwoBundles(t *testing.T) {
	eng := sim.NewEngine(1)
	muxA := tcp.NewMux()
	demux := netem.NewDemux()
	const rate, rtt = 96e6, 50 * sim.Millisecond
	bottleneck := netem.NewLink(eng, "bottleneck", rate, rtt/2,
		qdisc.NewFIFO(2*int(rate/8*rtt.Seconds())), demux)
	reverse := netem.NewLink(eng, "reverse", 10e9, rtt/2, qdisc.NewFIFO(1<<26), muxA)

	// Two bundles: destination hosts < 5000 go to site B1, others to B2.
	mkPair := func(id uint32) (*Sendbox, *Receivebox, *tcp.Mux) {
		sbCtl := pkt.Addr{Host: 1<<30 + id, Port: 1}
		rbCtl := pkt.Addr{Host: 1<<30 + id, Port: 2}
		sb := NewSendbox(eng, Config{}, bottleneck, sbCtl, rbCtl)
		rb := NewReceivebox(eng, reverse, rbCtl, sbCtl, 0)
		muxB := tcp.NewMux()
		muxB.Register(rbCtl, rb)
		demux.Route(rbCtl.Host, muxB)
		muxA.Register(sbCtl, sb)
		return sb, rb, muxB
	}
	sb1, rb1, muxB1 := mkPair(1)
	sb2, rb2, muxB2 := mkPair(2)
	demux.Default = netem.ReceiverFunc(func(p *pkt.Packet) {
		if p.Dst.Host < 5000 {
			rb1.Observe(p)
			muxB1.Receive(p)
		} else {
			rb2.Observe(p)
			muxB2.Receive(p)
		}
	})

	multi := NewMultiSendbox(func(p *pkt.Packet) int {
		if p.Dst.Host < 5000 {
			return 0
		}
		return 1
	}, sb1, sb2)

	addFlow := func(src, dst uint32, mux *tcp.Mux) *tcp.Sender {
		sa := pkt.Addr{Host: src, Port: 5000}
		da := pkt.Addr{Host: dst, Port: 80}
		id := uint64(dst)
		s := tcp.NewSender(eng, multi, sa, da, id, 1<<40, tcp.NewCubic(), nil)
		r := tcp.NewReceiver(eng, reverse, da, sa, id, 1<<40, nil)
		muxA.Register(sa, s)
		mux.Register(da, r)
		s.Start()
		return s
	}
	var b1Flows, b2Flows []*tcp.Sender
	for i := uint32(0); i < 4; i++ {
		b1Flows = append(b1Flows, addFlow(1000+i, 2000+i, muxB1))
		b2Flows = append(b2Flows, addFlow(6000+i, 7000+i, muxB2))
	}

	eng.RunUntil(20 * sim.Second)
	multi.Stop()

	if sb1.AcksMatched < 100 || sb2.AcksMatched < 100 {
		t.Fatalf("inner loops starved: %d / %d matched ACKs", sb1.AcksMatched, sb2.AcksMatched)
	}
	if multi.Misrouted != 0 {
		t.Fatalf("%d misrouted packets", multi.Misrouted)
	}
	var tput1, tput2 float64
	for _, s := range b1Flows {
		tput1 += float64(s.Acked()) * 8 / 20 / 1e6
	}
	for _, s := range b2Flows {
		tput2 += float64(s.Acked()) * 8 / 20 / 1e6
	}
	if tput1+tput2 < 0.7*96 {
		t.Fatalf("aggregate %.1f Mbit/s across two bundles, want ≥ 70%% of 96", tput1+tput2)
	}
	// Per-site fairness (§9): neither bundle starves.
	if tput1 < 0.25*(tput1+tput2) || tput2 < 0.25*(tput1+tput2) {
		t.Fatalf("unfair split: %.1f / %.1f Mbit/s", tput1, tput2)
	}
	if multi.box(0) != sb1 || multi.box(1) != sb2 {
		t.Fatal("box accessor wrong")
	}
}

func TestMultiSendboxValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty box list")
		}
	}()
	NewMultiSendbox(func(*pkt.Packet) int { return 0 })
}
