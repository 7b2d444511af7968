package bundle

import (
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// lossyTopo is the standard test topology with Bernoulli loss injected on
// the Bundler control channel (congestion ACKs and/or epoch updates),
// exercising the §4.5 robustness claims: a lost boundary's rates are
// simply computed over a longer epoch, and power-of-two epoch sizes keep
// sendbox/receivebox samples comparable across lost updates.
func lossyTopo(t *testing.T, ackLoss, updateLoss float64) (*topo, *netem.Lossy, *netem.Lossy) {
	t.Helper()
	eng := sim.NewEngine(5)
	tp := &topo{eng: eng, muxA: tcp.NewMux(), muxB: tcp.NewMux()}
	tp.demux = netem.NewDemux()
	rate, rtt := 96e6, 50*sim.Millisecond
	buf := 2 * int(rate/8*rtt.Seconds())
	tp.bottleneck = netem.NewLink(eng, "bottleneck", rate, rtt/2, qdisc.NewFIFO(buf), tp.demux)
	tp.reverse = netem.NewLink(eng, "reverse", 1e9, rtt/2, qdisc.NewFIFO(1<<24), tp.muxA)

	sbCtl := pkt.Addr{Host: ctlHostSend, Port: 1}
	rbCtl := pkt.Addr{Host: ctlHostRecv, Port: 1}

	// Congestion ACKs leave the receivebox through a lossy element.
	ackDrop := netem.NewLossy(eng, ackLoss, tp.reverse)
	ackDrop.Filter = func(p *pkt.Packet) bool { return p.Proto == pkt.ProtoCtl }
	tp.rb = NewReceivebox(eng, ackDrop, rbCtl, sbCtl, 16)

	// Epoch updates leave the sendbox through another lossy element.
	updateDrop := netem.NewLossy(eng, updateLoss, tp.bottleneck)
	updateDrop.Filter = func(p *pkt.Packet) bool { return p.Proto == pkt.ProtoCtl }
	tp.sb = NewSendbox(eng, Config{}, updateDrop, sbCtl, rbCtl)
	// Rewire the pacer target: data goes through updateDrop too, but the
	// filter exempts it.
	tp.muxA.Register(sbCtl, tp.sb)
	tp.muxB.Register(rbCtl, tp.rb)
	tp.demux.Default = netem.NewTap(tp.rb.Observe, tp.muxB)
	tp.siteEgress = tp.sb
	return tp, ackDrop, updateDrop
}

func TestSurvivesCongestionACKLoss(t *testing.T) {
	tp, ackDrop, _ := lossyTopo(t, 0.10, 0)
	s, _ := tp.addFlow(1<<40, tcp.NewCubic())
	s.Start()
	tp.eng.RunUntil(20 * sim.Second)
	if ackDrop.Dropped == 0 {
		t.Fatal("loss element never fired; test is vacuous")
	}
	if tp.sb.AcksMatched < 100 {
		t.Fatalf("only %d matched ACKs under 10%% ctl loss", tp.sb.AcksMatched)
	}
	// The control loop keeps the bundle near capacity despite losing a
	// tenth of its feedback.
	gput := float64(s.Acked()) * 8 / 20
	if gput < 0.7*96e6 {
		t.Fatalf("goodput %.1f Mbit/s under ACK loss, want ≥ 70%% of 96", gput/1e6)
	}
	if tp.sb.Mode() != ModeDelayControl {
		t.Fatalf("mode = %v, want delay-control", tp.sb.Mode())
	}
	// Lost boundary ACKs must not be misread as reordering.
	if frac := tp.sb.OOOFraction(); frac > 0.02 {
		t.Fatalf("OOO fraction %.3f under pure loss, want ≈ 0", frac)
	}
}

func TestSurvivesEpochUpdateLoss(t *testing.T) {
	// Drop ALL epoch-size updates: the receivebox stays at its initial
	// power-of-two epoch forever. Sub/superset sampling keeps the
	// measurement loop alive (§4.5).
	tp, _, updateDrop := lossyTopo(t, 0, 1.0)
	s, _ := tp.addFlow(1<<40, tcp.NewCubic())
	s.Start()
	tp.eng.RunUntil(20 * sim.Second)
	if updateDrop.Dropped == 0 {
		t.Fatal("no epoch updates were sent/dropped; test is vacuous")
	}
	if tp.rb.EpochUpdates != 0 {
		t.Fatal("an epoch update got through the 100% loss element")
	}
	if tp.rb.EpochN() != 16 {
		t.Fatalf("receivebox epoch changed to %d despite total update loss", tp.rb.EpochN())
	}
	if tp.sb.AcksMatched < 100 {
		t.Fatalf("only %d matched ACKs with a stale receivebox epoch", tp.sb.AcksMatched)
	}
	gput := float64(s.Acked()) * 8 / 20
	if gput < 0.7*96e6 {
		t.Fatalf("goodput %.1f Mbit/s with stale epochs, want ≥ 70%% of 96", gput/1e6)
	}
}

func TestExactEpochSizingDegradesUnderUpdateLoss(t *testing.T) {
	// The ablation knob: without power-of-two rounding, a stale
	// receivebox epoch samples a set with almost no overlap, so most
	// congestion ACKs are spurious. This is the failure mode the paper's
	// rounding rule exists to prevent.
	eng := sim.NewEngine(5)
	tp := &topo{eng: eng, muxA: tcp.NewMux(), muxB: tcp.NewMux()}
	tp.demux = netem.NewDemux()
	rate, rtt := 96e6, 50*sim.Millisecond
	tp.bottleneck = netem.NewLink(eng, "bottleneck", rate, rtt/2, qdisc.NewFIFO(2*int(rate/8*rtt.Seconds())), tp.demux)
	tp.reverse = netem.NewLink(eng, "reverse", 1e9, rtt/2, qdisc.NewFIFO(1<<24), tp.muxA)
	sbCtl := pkt.Addr{Host: ctlHostSend, Port: 1}
	rbCtl := pkt.Addr{Host: ctlHostRecv, Port: 1}
	tp.rb = NewReceivebox(eng, tp.reverse, rbCtl, sbCtl, 17) // deliberately co-prime-ish
	drop := netem.NewLossy(eng, 1.0, tp.bottleneck)
	drop.Filter = func(p *pkt.Packet) bool { return p.Proto == pkt.ProtoCtl }
	tp.sb = NewSendbox(eng, Config{ExactEpochSize: true}, drop, sbCtl, rbCtl)
	tp.muxA.Register(sbCtl, tp.sb)
	tp.muxB.Register(rbCtl, tp.rb)
	tp.demux.Default = netem.NewTap(tp.rb.Observe, tp.muxB)
	tp.siteEgress = tp.sb
	s, _ := tp.addFlow(1<<40, tcp.NewCubic())
	s.Start()
	tp.eng.RunUntil(20 * sim.Second)
	matched, spurious := tp.sb.AcksMatched, tp.sb.AcksSpurious
	if matched+spurious == 0 {
		t.Fatal("no ACK traffic at all")
	}
	if frac := float64(matched) / float64(matched+spurious); frac > 0.5 {
		t.Fatalf("matched fraction %.2f with incomparable epochs; expected degradation", frac)
	}
}

func TestLossyElementBernoulli(t *testing.T) {
	eng := sim.NewEngine(11)
	sink := &netem.Sink{}
	l := netem.NewLossy(eng, 0.25, sink)
	const n = 20000
	for i := 0; i < n; i++ {
		l.Receive(&pkt.Packet{Size: 100})
	}
	got := float64(l.Dropped) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("loss rate %.3f, want ≈ 0.25", got)
	}
	if sink.Count+l.Dropped != n {
		t.Fatal("packets vanished")
	}
}

// TestSurvivesReversePathJitter injects ±2 ms of uniform delay variation
// on the control channel. The jitter does trip the §5.2 multipath
// heuristic: at 0.39 s, 7 of the first 35 congestion ACKs have arrived out
// of order, and the Sendbox disables itself. Past the 5 s dwell, once the
// out-of-order fraction falls below a quarter of the threshold (at
// 6.77 s), it re-enables delay control. What must hold is the end state:
// rate control is back, and windowed measurement (§4.5) keeps goodput and
// the RTT estimate bounded.
func TestSurvivesReversePathJitter(t *testing.T) {
	eng := sim.NewEngine(6)
	tp := &topo{eng: eng, muxA: tcp.NewMux(), muxB: tcp.NewMux()}
	tp.demux = netem.NewDemux()
	rate, rtt := 96e6, 50*sim.Millisecond
	tp.bottleneck = netem.NewLink(eng, "bottleneck", rate, rtt/2,
		qdisc.NewFIFO(2*int(rate/8*rtt.Seconds())), tp.demux)
	tp.reverse = netem.NewLink(eng, "reverse", 1e9, rtt/2, qdisc.NewFIFO(1<<24), tp.muxA)
	sbCtl := pkt.Addr{Host: ctlHostSend, Port: 1}
	rbCtl := pkt.Addr{Host: ctlHostRecv, Port: 1}
	jitter := netem.NewJitter(eng, 2*sim.Millisecond, tp.reverse)
	tp.rb = NewReceivebox(eng, jitter, rbCtl, sbCtl, 16)
	tp.sb = NewSendbox(eng, Config{}, tp.bottleneck, sbCtl, rbCtl)
	rtts := recordRTTs(tp.sb)
	tp.muxA.Register(sbCtl, tp.sb)
	tp.muxB.Register(rbCtl, tp.rb)
	tp.demux.Default = netem.NewTap(tp.rb.Observe, tp.muxB)
	tp.siteEgress = tp.sb

	s, _ := tp.addFlow(1<<40, tcp.NewCubic())
	s.Start()
	tp.eng.RunUntil(20 * sim.Second)
	if tp.sb.Mode() == ModeDisabled {
		t.Fatalf("2ms control jitter left the multipath heuristic tripped (ooo=%.3f)", tp.sb.OOOFraction())
	}
	gput := float64(s.Acked()) * 8 / 20
	if gput < 0.7*96e6 {
		t.Fatalf("goodput %.1f Mbit/s under control jitter", gput/1e6)
	}
	// Jitter biases the capacity estimate slightly upward (compressed ACK
	// gaps read as extra rate), which a delay controller converts into a
	// modest standing queue — bounded, not runaway.
	est := rtts.MeanOver(5*sim.Second, 20*sim.Second)
	if est < 48 || est > 75 {
		t.Fatalf("RTT estimate mean %.1fms under jitter, want bounded (<75ms)", est)
	}
}
