package bundle

import (
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
	"bundler/internal/udpapp"
)

func TestTunnelModeMeasurementPipeline(t *testing.T) {
	tp := newTopo(t, true, 96e6, 50*sim.Millisecond, 1<<22, Config{TunnelMode: true})
	s, r := tp.addFlow(40_000_000, tcp.NewCubic())
	s.Start()
	tp.eng.RunUntil(10 * sim.Second)
	if !s.Done() || !r.Done() {
		t.Fatal("tunnelled transfer incomplete")
	}
	if tp.sb.AcksMatched < 50 {
		t.Fatalf("only %d matched ACKs in tunnel mode", tp.sb.AcksMatched)
	}
	// Explicit markers are unique: no spurious matches at all.
	if tp.sb.AcksSpurious != 0 {
		t.Fatalf("%d spurious ACKs with explicit markers", tp.sb.AcksSpurious)
	}
	if tp.sb.MinRTT() < 50*sim.Millisecond || tp.sb.MinRTT() > 60*sim.Millisecond {
		t.Fatalf("minRTT = %v, want ≈ 50ms", tp.sb.MinRTT())
	}
}

func TestTunnelModeDecapsulatesBeforeDelivery(t *testing.T) {
	// The TCP receiver computes payload from p.Size; if the receivebox
	// failed to strip the encapsulation, reassembly would corrupt. A
	// completed transfer of the exact size proves decapsulation.
	tp := newTopo(t, true, 48e6, 40*sim.Millisecond, 1<<22, Config{TunnelMode: true})
	s, r := tp.addFlow(5_000_000, tcp.NewCubic())
	s.Start()
	tp.eng.RunUntil(10 * sim.Second)
	if !r.Done() {
		t.Fatal("receiver incomplete: encapsulation leaked into payload accounting")
	}
	_ = s
}

// TestTunnelModeWorksWithoutIPIDEntropy is the IPv6 story: hash-based
// sampling needs per-packet header entropy (the IPv4 ID field); with
// constant headers every packet of a flow hashes identically and sampling
// degenerates. Tunnel mode is immune.
func TestTunnelModeWorksWithoutIPIDEntropy(t *testing.T) {
	for _, tunnel := range []bool{false, true} {
		tp := newTopo(t, true, 48e6, 40*sim.Millisecond, 1<<22, Config{TunnelMode: tunnel})
		stripped := 0
		// Interpose a tap that zeroes IPIDs before the sendbox, emulating
		// a header with no per-packet entropy.
		site := tp.siteEgress
		tp.siteEgress = netem.ReceiverFunc(func(p *pkt.Packet) {
			p.IPID = 0
			stripped++
			site.Receive(p)
		})
		s, _ := tp.addFlow(1<<40, tcp.NewCubic())
		s.Start()
		tp.eng.RunUntil(8 * sim.Second)
		if stripped == 0 {
			t.Fatal("IPID zeroing tap never ran")
		}
		if tunnel && tp.sb.AcksMatched < 50 {
			t.Fatalf("tunnel mode: %d matched ACKs without IPID entropy, want plenty", tp.sb.AcksMatched)
		}
		if !tunnel {
			// Hash mode degenerates: a flow with constant headers is
			// either sampled on every packet or never. Either way the
			// epoch spacing no longer tracks N, which is the failure
			// tunnel mode exists to avoid. Log for visibility.
			t.Logf("hash mode without entropy: %d matched ACKs", tp.sb.AcksMatched)
		}
	}
}

// TestProtocolAgnosticBundle exercises §4.4's core claim: out-of-band
// feedback makes Bundler indifferent to the transport. A bundle carrying
// TCP bulk, a paced UDP stream, and closed-loop UDP request/response
// probes measures and schedules all of it.
func TestProtocolAgnosticBundle(t *testing.T) {
	tp := newTopo(t, true, 48e6, 50*sim.Millisecond, 1<<22, Config{})
	bulk, _ := tp.addFlow(1<<40, tcp.NewCubic())
	bulk.Start()

	// A paced UDP stream (application-limited) into the bundle.
	cbrDst := pkt.Addr{Host: 7001, Port: 9}
	sink := &netem.Sink{}
	tp.muxB.Register(cbrDst, sink)
	cbr := udpapp.NewCBRStream(tp.eng, tp.siteEgress, pkt.Addr{Host: 7000, Port: 9}, cbrDst, 900, 5e6, pkt.MTU)
	cbr.Start()
	defer cbr.Stop()

	// Closed-loop UDP probes into the bundle.
	pingSrc := pkt.Addr{Host: 7002, Port: 9}
	pingDst := pkt.Addr{Host: 7003, Port: 9}
	client := udpapp.NewPingClient(tp.eng, tp.siteEgress, pingSrc, pingDst, 901)
	server := udpapp.NewPingServer(tp.eng, tp.reverse, pingDst)
	tp.muxA.Register(pingSrc, client)
	tp.muxB.Register(pingDst, server)
	client.Start()

	tp.eng.RunUntil(20 * sim.Second)
	if tp.sb.AcksMatched < 100 {
		t.Fatalf("measurement starved with mixed protocols: %d", tp.sb.AcksMatched)
	}
	if sink.Count < 1000 {
		t.Fatalf("UDP stream delivered only %d packets", sink.Count)
	}
	if client.Series.N() < 50 {
		t.Fatalf("only %d probe round trips", client.Series.N())
	}
	// SFQ at the sendbox isolates the probes from the TCP bulk: their
	// RTTs stay near the base despite the backlogged flow.
	var rtts stats.Sample
	for _, v := range client.Series.V {
		rtts.Add(v)
	}
	if med := rtts.Median(); med > 75 {
		t.Fatalf("probe median RTT %.1fms behind TCP bulk, want < 75ms (SFQ isolation)", med)
	}
	// Throughput still near capacity with the mixed bundle.
	gput := float64(bulk.Acked())*8/20 + 5e6
	if gput < 0.7*48e6 {
		t.Fatalf("mixed-bundle goodput %.1f Mbit/s", gput/1e6)
	}
}
