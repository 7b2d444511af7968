package udpapp

import (
	"math"
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
)

func TestPingMeasuresPathRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	mux := tcp.NewMux()
	fwd := netem.NewLink(eng, "fwd", 96e6, 25*sim.Millisecond, qdisc.NewFIFO(1<<20), mux)
	rev := netem.NewLink(eng, "rev", 96e6, 25*sim.Millisecond, qdisc.NewFIFO(1<<20), mux)
	ca := pkt.Addr{Host: 1, Port: 100}
	sa := pkt.Addr{Host: 2, Port: 200}
	client := NewPingClient(eng, fwd, ca, sa, 1)
	server := NewPingServer(eng, rev, sa)
	mux.Register(ca, client)
	mux.Register(sa, server)
	client.Start()
	eng.RunUntil(5 * sim.Second)
	if client.Series.N() < 50 {
		t.Fatalf("only %d round trips in 5s", client.Series.N())
	}
	// Base RTT ≈ 50 ms propagation + negligible serialization.
	med := median(client.Series.V)
	if math.Abs(med-50) > 1 {
		t.Fatalf("median RTT %.2fms, want ≈ 50ms", med)
	}
	if server.Served != client.Series.N() && server.Served != client.Series.N()+1 {
		t.Fatalf("served %d, client completed %d", server.Served, client.Series.N())
	}
}

func TestPingSeesQueueingDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	mux := tcp.NewMux()
	fwd := netem.NewLink(eng, "fwd", 12e6, 10*sim.Millisecond, qdisc.NewFIFO(1<<22), mux)
	rev := netem.NewLink(eng, "rev", 1e9, 10*sim.Millisecond, qdisc.NewFIFO(1<<22), mux)
	ca := pkt.Addr{Host: 1, Port: 100}
	sa := pkt.Addr{Host: 2, Port: 200}
	client := NewPingClient(eng, fwd, ca, sa, 1)
	server := NewPingServer(eng, rev, sa)
	mux.Register(ca, client)
	mux.Register(sa, server)
	// Overloading cross traffic through the same queue: a deterministic
	// 13 Mbit/s offered load on a 12 Mbit/s link builds a standing queue.
	cbr := NewCBRStream(eng, fwd, pkt.Addr{Host: 3, Port: 1}, pkt.Addr{Host: 4, Port: 1}, 2, 13e6, pkt.MTU)
	mux.Register(pkt.Addr{Host: 4, Port: 1}, &netem.Sink{})
	client.Start()
	cbr.Start()
	eng.RunUntil(10 * sim.Second)
	med := median(client.Series.V)
	if med < 30 {
		t.Fatalf("median RTT %.2fms does not reflect queueing (base 20ms)", med)
	}
	cbr.Stop()
}

func TestCBRRateAccuracy(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &netem.Sink{}
	cbr := NewCBRStream(eng, sink, pkt.Addr{Host: 1}, pkt.Addr{Host: 2}, 1, 12e6, pkt.MTU)
	cbr.Start()
	eng.RunUntil(10 * sim.Second)
	cbr.Stop()
	// 12 Mbit/s / (1500*8 bits) = 1000 packets/s.
	want := 10000
	if sink.Count < want-10 || sink.Count > want+10 {
		t.Fatalf("CBR delivered %d packets in 10s, want ≈ %d", sink.Count, want)
	}
	eng.RunUntil(11 * sim.Second)
	if sink.Count > want+10 {
		t.Fatal("CBR kept sending after Stop")
	}
}

func TestPingIgnoresForeignProtocols(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewPingClient(eng, &netem.Sink{}, pkt.Addr{Host: 1}, pkt.Addr{Host: 2}, 1)
	c.Start()
	c.Receive(&pkt.Packet{Proto: pkt.ProtoTCP})
	if c.Series.N() != 0 {
		t.Fatal("TCP packet recorded as ping response")
	}
}

// median returns the median of vs.
func median(vs []float64) float64 {
	var s stats.Sample
	for _, v := range vs {
		s.Add(v)
	}
	return s.Median()
}
