package tcp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

// testPath wires a symmetric dumbbell: sender -> bottleneck link -> mux,
// receiver -> reverse link -> mux. Addresses route back to the endpoints.
type testPath struct {
	eng *sim.Engine
	mux *Mux
	fwd *netem.Link
	rev *netem.Link
}

func newTestPath(rateBps float64, rtt sim.Time, bufBytes int) *testPath {
	eng := sim.NewEngine(1)
	mux := NewMux()
	fwd := netem.NewLink(eng, "fwd", rateBps, rtt/2, qdisc.NewFIFO(bufBytes), mux)
	rev := netem.NewLink(eng, "rev", 1e9, rtt/2, qdisc.NewFIFO(1<<24), mux)
	return &testPath{eng: eng, mux: mux, fwd: fwd, rev: rev}
}

// addFlow creates a sender/receiver pair over the path.
func (tp *testPath) addFlow(id uint64, size int64, cc Congestion) (*Sender, *Receiver) {
	sa := pkt.Addr{Host: uint32(1000 + id), Port: 5000}
	ra := pkt.Addr{Host: uint32(2000 + id), Port: 80}
	s := NewSender(tp.eng, tp.fwd, sa, ra, id, size, cc, nil)
	r := NewReceiver(tp.eng, tp.rev, ra, sa, id, size, nil)
	tp.mux.Register(sa, s)
	tp.mux.Register(ra, r)
	return s, r
}

func TestShortFlowCompletesInFewRTTs(t *testing.T) {
	tp := newTestPath(96e6, 50*sim.Millisecond, 1<<20)
	s, r := tp.addFlow(1, 10_000, NewCubic())
	s.Start()
	tp.eng.RunUntil(5 * sim.Second)
	if !s.Done() || !r.Done() {
		t.Fatal("10KB flow did not complete")
	}
	// 10 KB fits in the initial window: one RTT plus serialization.
	fct := s.DoneAt - s.StartedAt
	if fct > 100*sim.Millisecond {
		t.Fatalf("FCT = %v, want ≈ 1 RTT (50ms)", fct)
	}
	if s.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", s.Retransmits)
	}
}

func TestLargeFlowSaturatesLink(t *testing.T) {
	for _, cc := range []string{"cubic", "reno", "bbr"} {
		cc := cc
		t.Run(cc, func(t *testing.T) {
			tp := newTestPath(48e6, 40*sim.Millisecond, 2*240*1500) // ~2 BDP buffer
			const size = 60_000_000
			s, r := tp.addFlow(1, size, NewEndhostCC(cc))
			s.Start()
			tp.eng.RunUntil(60 * sim.Second)
			if !s.Done() || !r.Done() {
				t.Fatalf("%s: 60MB flow incomplete after 60s (acked %d)", cc, s.sndUna)
			}
			fct := (s.DoneAt - s.StartedAt).Seconds()
			gput := float64(size) * 8 / fct
			if gput < 0.70*48e6 {
				t.Fatalf("%s: goodput %.1f Mbit/s, want ≥ 70%% of 48", cc, gput/1e6)
			}
		})
	}
}

func TestLossRecoveryWithTinyBuffer(t *testing.T) {
	tp := newTestPath(24e6, 40*sim.Millisecond, 20*1500) // tiny buffer: forced drops
	const size = 20_000_000
	s, r := tp.addFlow(1, size, NewCubic())
	s.Start()
	tp.eng.RunUntil(120 * sim.Second)
	if !s.Done() || !r.Done() {
		t.Fatalf("flow incomplete: acked %d of %d (retx=%d timeouts=%d)",
			s.sndUna, int64(size), s.Retransmits, s.Timeouts)
	}
	if s.Retransmits == 0 {
		t.Fatal("expected retransmits with a 20-packet buffer")
	}
	if tp.fwd.Queue().Drops() == 0 {
		t.Fatal("expected queue drops")
	}
}

func TestSRTTTracksPathRTT(t *testing.T) {
	tp := newTestPath(96e6, 80*sim.Millisecond, 1<<22)
	s, _ := tp.addFlow(1, 2_000_000, NewReno())
	s.Start()
	tp.eng.RunUntil(10 * sim.Second)
	if !s.Done() {
		t.Fatal("flow incomplete")
	}
	if s.srtt < 80*sim.Millisecond || s.srtt > 200*sim.Millisecond {
		t.Fatalf("SRTT = %v, want ≈ 80ms (plus queueing)", s.srtt)
	}
}

func TestTwoFlowsShareRoughlyFairly(t *testing.T) {
	tp := newTestPath(48e6, 40*sim.Millisecond, 240*1500)
	const size = 30_000_000
	s1, _ := tp.addFlow(1, size, NewCubic())
	s2, _ := tp.addFlow(2, size, NewCubic())
	s1.Start()
	s2.Start()
	tp.eng.RunUntil(60 * sim.Second)
	if !s1.Done() || !s2.Done() {
		t.Fatal("flows incomplete")
	}
	f1 := (s1.DoneAt - s1.StartedAt).Seconds()
	f2 := (s2.DoneAt - s2.StartedAt).Seconds()
	ratio := math.Max(f1, f2) / math.Min(f1, f2)
	if ratio > 1.6 {
		t.Fatalf("FCT ratio %.2f between equal flows, want < 1.6 (f1=%.1fs f2=%.1fs)", ratio, f1, f2)
	}
}

func TestFixedCwndKeepsWindowConstant(t *testing.T) {
	tp := newTestPath(96e6, 50*sim.Millisecond, 1<<24)
	cc := NewFixedCwnd(450)
	s, r := tp.addFlow(1, 10_000_000, cc)
	s.Start()
	tp.eng.RunUntil(30 * sim.Second)
	if !s.Done() || !r.Done() {
		t.Fatal("flow incomplete")
	}
	if cc.CwndBytes() != 450*mssF {
		t.Fatalf("fixed window drifted to %v", cc.CwndBytes())
	}
}

func TestRetransmitsGetFreshIPID(t *testing.T) {
	// Feed a sender's packets through a lossy tap and record IPIDs.
	eng := sim.NewEngine(3)
	mux := NewMux()
	seen := map[uint16]int{}
	dropEvery := 7
	count := 0
	lossy := netem.NewTap(func(p *pkt.Packet) {
		if p.Proto == pkt.ProtoTCP && p.Flags&pkt.FlagACK == 0 {
			seen[p.IPID]++
		}
	}, netem.ReceiverFunc(func(p *pkt.Packet) {}))
	_ = lossy
	fwdQ := qdisc.NewFIFO(1 << 22)
	var fwd *netem.Link
	dropper := netem.ReceiverFunc(func(p *pkt.Packet) {
		count++
		if p.Flags&pkt.FlagACK == 0 {
			seen[p.IPID]++
			if count%dropEvery == 0 {
				return // drop
			}
		}
		mux.Receive(p)
	})
	fwd = netem.NewLink(eng, "fwd", 24e6, 20*sim.Millisecond, fwdQ, dropper)
	rev := netem.NewLink(eng, "rev", 1e9, 20*sim.Millisecond, qdisc.NewFIFO(1<<22), mux)
	sa := pkt.Addr{Host: 1, Port: 1}
	ra := pkt.Addr{Host: 2, Port: 2}
	s := NewSender(eng, fwd, sa, ra, 1, 3_000_000, NewCubic(), nil)
	r := NewReceiver(eng, rev, ra, sa, 1, 3_000_000, nil)
	mux.Register(sa, s)
	mux.Register(ra, r)
	s.Start()
	eng.RunUntil(60 * sim.Second)
	if !s.Done() {
		t.Fatalf("flow incomplete under loss (retx=%d timeouts=%d una=%d)", s.Retransmits, s.Timeouts, s.sndUna)
	}
	if s.Retransmits == 0 {
		t.Fatal("no retransmits despite forced loss")
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("IPID %d reused %d times; retransmits must get fresh IPIDs", id, n)
		}
	}
}

func TestReceiverReassemblyInOrderAck(t *testing.T) {
	eng := sim.NewEngine(1)
	var acks []int64
	out := netem.ReceiverFunc(func(p *pkt.Packet) { acks = append(acks, p.Ack) })
	r := NewReceiver(eng, out, pkt.Addr{Host: 2}, pkt.Addr{Host: 1}, 1, 3*1460, nil)
	for i := 0; i < 3; i++ {
		r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: int64(i * 1460), Size: 1500})
	}
	want := []int64{1460, 2920, 4380}
	for i, a := range acks {
		if a != want[i] {
			t.Fatalf("ack %d = %d, want %d", i, a, want[i])
		}
	}
	if !r.Done() {
		t.Fatal("receiver not done after all bytes")
	}
}

func TestReceiverDupAcksForGap(t *testing.T) {
	eng := sim.NewEngine(1)
	var acks []int64
	out := netem.ReceiverFunc(func(p *pkt.Packet) { acks = append(acks, p.Ack) })
	r := NewReceiver(eng, out, pkt.Addr{Host: 2}, pkt.Addr{Host: 1}, 1, 4*1460, nil)
	r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: 0, Size: 1500})
	r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: 2920, Size: 1500}) // gap at 1460
	r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: 4380, Size: 1500})
	r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: 1460, Size: 1500}) // fill
	want := []int64{1460, 1460, 1460, 5840}
	if len(acks) != len(want) {
		t.Fatalf("got %d acks, want %d", len(acks), len(want))
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("ack %d = %d, want %d", i, acks[i], want[i])
		}
	}
}

// TestReceiverInOrderAllocFree pins the in-order fast path: a receiver
// fed in-order segments with nothing buffered out of order allocates
// nothing, its first segment included. Each run takes a freshly built
// receiver, so a one-off allocation per connection shows as one per run.
func TestReceiverInOrderAllocFree(t *testing.T) {
	const runs, segs = 20, 8
	eng := sim.NewEngine(1)
	pl := &pkt.Pool{}
	pl.Put(pl.Get()) // one packet in flight at a time: the data, then its ACK
	out := netem.ReceiverFunc(pkt.Put)
	rcvs := make([]*Receiver, runs+1) // AllocsPerRun adds a warm-up run
	for i := range rcvs {
		rcvs[i] = NewReceiver(eng, out, pkt.Addr{Host: 2}, pkt.Addr{Host: 1}, 1, segs*1460, nil)
		rcvs[i].SetPool(pl)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		r := rcvs[next]
		next++
		for i := 0; i < segs; i++ {
			p := pl.Get()
			p.Proto, p.Seq, p.Size = pkt.ProtoTCP, int64(i*1460), 1500
			r.Receive(p)
		}
	}); n != 0 {
		t.Errorf("in-order receive: %.0f allocations per %d-segment connection, want 0", n, segs)
	}
	for i, r := range rcvs {
		if !r.Done() || r.rcvNxt != segs*1460 {
			t.Fatalf("receiver %d: done %v, rcvNxt %d, want done at %d", i, r.Done(), r.rcvNxt, segs*1460)
		}
	}
}

// Property: any delivery permutation of the segments completes the stream.
func TestPropertyReassemblyAnyOrder(t *testing.T) {
	f := func(seed int64, nseg uint8) bool {
		n := int(nseg)%20 + 1
		eng := sim.NewEngine(1)
		r := NewReceiver(eng, netem.ReceiverFunc(func(*pkt.Packet) {}),
			pkt.Addr{Host: 2}, pkt.Addr{Host: 1}, 1, int64(n*1460), nil)
		order := rand.New(rand.NewSource(seed)).Perm(n)
		for _, i := range order {
			r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: int64(i * 1460), Size: 1500})
		}
		return r.Done() && r.rcvNxt == int64(n*1460)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicated deliveries never over-advance rcvNxt.
func TestPropertyReassemblyIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		const n = 10
		eng := sim.NewEngine(1)
		r := NewReceiver(eng, netem.ReceiverFunc(func(*pkt.Packet) {}),
			pkt.Addr{Host: 2}, pkt.Addr{Host: 1}, 1, n*1460, nil)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 100; k++ {
			i := rng.Intn(n)
			r.Receive(&pkt.Packet{Proto: pkt.ProtoTCP, Seq: int64(i * 1460), Size: 1500})
			if r.rcvNxt > n*1460 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMuxDuplicateRegistrationPanics(t *testing.T) {
	m := NewMux()
	a := pkt.Addr{Host: 1, Port: 1}
	m.Register(a, &netem.Sink{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	m.Register(a, &netem.Sink{})
}

func TestMuxUnregister(t *testing.T) {
	m := NewMux()
	a := pkt.Addr{Host: 1, Port: 1}
	sink := &netem.Sink{}
	m.Register(a, sink)
	m.Unregister(a)
	m.Receive(&pkt.Packet{Dst: a})
	if sink.Count != 0 || m.Dropped() != 1 {
		t.Fatal("unregister failed")
	}
}

func TestBBRConvergesNearBottleneckRate(t *testing.T) {
	tp := newTestPath(48e6, 40*sim.Millisecond, 480*1500)
	cc := NewBBR()
	s, _ := tp.addFlow(1, 40_000_000, cc)
	s.Start()
	tp.eng.RunUntil(30 * sim.Second)
	if !s.Done() {
		t.Fatal("BBR flow incomplete")
	}
	bw := cc.btlBw.Get()
	if bw < 0.7*48e6 || bw > 1.4*48e6 {
		t.Fatalf("BBR bandwidth estimate %.1f Mbit/s, want ≈ 48", bw/1e6)
	}
}

func TestRenoHalvesOnLoss(t *testing.T) {
	r := NewReno()
	for i := 0; i < 100; i++ {
		r.OnAck(pkt.MSS, 0, 0)
	}
	before := r.CwndBytes()
	r.OnLoss(0)
	if got := r.CwndBytes(); math.Abs(got-before/2) > 1 {
		t.Fatalf("cwnd after loss = %v, want %v", got, before/2)
	}
	r.OnTimeout(0)
	if r.CwndBytes() != mssF {
		t.Fatalf("cwnd after timeout = %v, want 1 MSS", r.CwndBytes())
	}
}

func TestCubicReducesBy30PercentOnLoss(t *testing.T) {
	c := NewCubic()
	for i := 0; i < 100; i++ {
		c.OnAck(pkt.MSS, 0, sim.Time(i)*sim.Millisecond)
	}
	before := c.CwndBytes()
	c.OnLoss(0)
	if got := c.CwndBytes(); math.Abs(got-before*0.7) > 1 {
		t.Fatalf("cwnd after loss = %v, want %v", got, before*0.7)
	}
}

func TestEndhostCCByName(t *testing.T) {
	for _, name := range EndhostCCs {
		NewEndhostCC(name) // every listed name builds
	}
	if _, ok := NewEndhostCC("").(*Cubic); !ok {
		t.Fatal(`NewEndhostCC("") is not the Cubic default`)
	}
}

func TestUnknownCCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown cc")
		}
	}()
	NewEndhostCC("vegas")
}
