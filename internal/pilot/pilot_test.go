package pilot

import (
	"net"
	"testing"
	"time"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/pkt"
)

// codecCases is one packet of each kind the pilot puts on the wire: a
// data segment with SACK blocks, both Bundler control payloads, and a
// tunneled datagram.
var codecCases = []*pkt.Packet{
	{IPID: 7, Src: pkt.Addr{Host: 65536, Port: 5000}, Dst: pkt.Addr{Host: 65537, Port: 80},
		Proto: pkt.ProtoTCP, Size: 1500, Seq: 1 << 40, Ack: 3, Flags: pkt.FlagACK, FlowID: 42,
		Retransmit: true, NSACK: 2,
		SACK: [4]pkt.SACKBlock{{Start: 10, End: 20}, {Start: 40, End: 90}}},
	{Proto: pkt.ProtoCtl, Dst: sbCtl, Size: bundle.CtlPacketSize,
		Ctl: pkt.CtlAck, CtlArg: [2]uint64{0xdeadbeef, 1 << 33}},
	{Proto: pkt.ProtoCtl, Dst: rbCtl, Size: bundle.CtlPacketSize,
		Ctl: pkt.CtlEpochUpdate, CtlArg: [2]uint64{128}},
	{Proto: pkt.ProtoUDP, Tunneled: true, TunnelSeq: 99, Size: 60},
}

// sameWire reports whether a and b agree on every field the codec
// carries, control payloads included.
func sameWire(a, b *pkt.Packet) bool {
	if a.IPID != b.IPID || a.Src != b.Src || a.Dst != b.Dst ||
		a.Proto != b.Proto || a.Size != b.Size || a.Seq != b.Seq ||
		a.Ack != b.Ack || a.Flags != b.Flags || a.FlowID != b.FlowID ||
		a.Retransmit != b.Retransmit || a.Tunneled != b.Tunneled ||
		a.TunnelSeq != b.TunnelSeq || a.NSACK != b.NSACK || a.SACK != b.SACK {
		return false
	}
	return a.Ctl == b.Ctl && a.CtlArg == b.CtlArg
}

// TestCodecRoundTrip: every field the emulated stack reads survives the
// wire, including control payloads and SACK blocks.
func TestCodecRoundTrip(t *testing.T) {
	var buf [maxWire]byte
	for i, want := range codecCases {
		b, err := marshal(want, buf[:])
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got, err := unmarshal(b[1:])
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if !sameWire(got, want) {
			t.Fatalf("case %d: round trip mangled the packet:\n got %+v\nwant %+v", i, got, want)
		}
		pkt.Put(got)
	}
}

// TestCodecRejectsGarbage: truncated or corrupt datagrams error instead
// of panicking or leaking half-decoded packets.
func TestCodecRejectsGarbage(t *testing.T) {
	p := &pkt.Packet{Proto: pkt.ProtoTCP, Size: 1500, NSACK: 1, SACK: [4]pkt.SACKBlock{{Start: 1, End: 2}}}
	var buf [maxWire]byte
	b, err := marshal(p, buf[:])
	if err != nil {
		t.Fatal(err)
	}
	body := b[1:]
	for _, bad := range [][]byte{body[:0], body[:5], body[:len(body)-1], append(body, 0)} {
		if _, err := unmarshal(bad); err == nil {
			t.Fatalf("unmarshal of %d of %d bytes succeeded", len(bad), len(body))
		}
	}
}

// FuzzCodec: a datagram off the socket either decodes to a packet that
// survives a marshal/unmarshal round trip unchanged, or errors without
// leaking a pooled packet.
func FuzzCodec(f *testing.F) {
	var buf [maxWire]byte
	for _, p := range codecCases {
		b, err := marshal(p, buf[:])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), b[1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		live := pkt.Live()
		p, err := unmarshal(data)
		if err != nil {
			if got := pkt.Live(); got != live {
				t.Fatalf("rejected datagram leaked %d packets", got-live)
			}
			return
		}
		var buf [maxWire]byte
		b, err := marshal(p, buf[:])
		if err != nil {
			t.Fatalf("decoded packet does not re-marshal: %v", err)
		}
		q, err := unmarshal(b[1:])
		if err != nil {
			t.Fatalf("re-marshalled packet does not decode: %v", err)
		}
		if !sameWire(p, q) {
			t.Fatalf("round trip changed the packet:\nfirst  %+v\nsecond %+v", p, q)
		}
		pkt.Put(p)
		pkt.Put(q)
	})
}

// TestFlowsDeterministic: the workload is a pure function of the seed —
// the property that lets two processes and the twin agree without
// coordination.
func TestFlowsDeterministic(t *testing.T) {
	cfg := Config{Seed: 5}
	a, b := flows(cfg), flows(cfg)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := flows(Config{Seed: 6})
	same := true
	for i := range a {
		if a[i].At != c[i].At || a[i].Size != c[i].Size {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestPilotDeliversTwinWorkload: two wall-clock domains exchanging real
// UDP datagrams over loopback complete the simulated twin's exact
// workload — every flow, to the byte. Real-clock jitter moves FCTs, not
// what is delivered; how far the FCTs sit from the twin's is measured by
// bench/layers/pilot, not gated here.
func TestPilotDeliversTwinWorkload(t *testing.T) {
	cfg := Config{Seed: 1, Horizon: 90 * time.Second}

	connA, connB := loopbackPair(t)
	recvErr := make(chan error, 1)
	go func() {
		recvErr <- RunRecv(cfg, connB, connA.LocalAddr().(*net.UDPAddr))
	}()
	pilotRes, err := RunSend(cfg, connA, connB.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("RunSend: %v", err)
	}
	if err := <-recvErr; err != nil {
		t.Fatalf("RunRecv: %v", err)
	}

	twinRes, err := RunTwin(cfg)
	if err != nil {
		t.Fatalf("RunTwin: %v", err)
	}

	full := cfg
	full.fill()
	if got, want := metric(t, pilotRes, "completed"), float64(full.Requests); got != want {
		t.Fatalf("pilot completed %v flows, want %v", got, want)
	}
	if got, want := metric(t, pilotRes, "bytes"), metric(t, twinRes, "bytes"); got != want {
		t.Fatalf("pilot moved %v bytes, twin %v — workloads diverged", got, want)
	}
	t.Logf("pilot fct-p50=%.1fms slowdown-p50=%.2f | twin fct-p50=%.1fms slowdown-p50=%.2f",
		metric(t, pilotRes, "fct-p50"), metric(t, pilotRes, "slowdown-p50"),
		metric(t, twinRes, "fct-p50"), metric(t, twinRes, "slowdown-p50"))
}

func loopbackPair(t *testing.T) (a, b *net.UDPConn) {
	t.Helper()
	for i, conn := range []**net.UDPConn{&a, &b} {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		*conn = c
	}
	return a, b
}

func metric(t *testing.T, res exp.Result, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("result has no metric %q (have %+v)", name, res.Metrics)
	return 0
}
