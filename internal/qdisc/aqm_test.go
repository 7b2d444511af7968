package qdisc

import (
	"testing"

	"bundler/internal/pkt"
	"bundler/internal/sim"
)

func TestCoDelPassesUnloadedTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCoDel(eng, 1000)
	for i := 0; i < 500; i++ {
		if !c.Enqueue(mkpkt(i%3, pkt.MTU)) {
			t.Fatal("enqueue rejected under limit")
		}
		if c.Dequeue() == nil {
			t.Fatal("immediate dequeue failed")
		}
	}
	if c.Drops() != 0 {
		t.Fatalf("CoDel dropped %d packets with zero sojourn time", c.Drops())
	}
}

func TestCoDelDropsPersistentQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCoDel(eng, 10000)
	for i := 0; i < 500; i++ {
		c.Enqueue(mkpkt(0, pkt.MTU))
	}
	drained := 0
	for i := 0; i < 400; i++ {
		eng.RunUntil(eng.Now() + 20*sim.Millisecond)
		if c.Dequeue() != nil {
			drained++
		}
		// Keep the queue pressurized.
		c.Enqueue(mkpkt(0, pkt.MTU))
	}
	if c.Drops() == 0 {
		t.Fatal("CoDel never dropped despite persistent 5ms+ sojourn")
	}
	if drained == 0 {
		t.Fatal("CoDel starved the queue")
	}
}

// The RFC 8289 form of the law, which CoDel shares with every FQCoDel
// flow: the head behind the first drop of a dropping episode is evaluated
// too, so when it is under target the interval clock restarts and the
// episode ends with the next forwarded packet instead of resuming one
// dropNext later.
func TestCoDelFirstDropReevaluatesHead(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCoDel(eng, 1000)
	at := func(ms int) { eng.RunUntil(sim.Time(ms) * sim.Millisecond) }
	enq := func(n int) (last *pkt.Packet) {
		for i := 0; i < n; i++ {
			last = mkpkt(0, pkt.MTU)
			c.Enqueue(last)
		}
		return last
	}
	enq(2)
	at(6)
	c.Dequeue() // over target with a backlog: the interval clock starts
	at(204)
	fresh := enq(1)
	at(205)
	enq(2)
	at(207)
	if got := c.Dequeue(); got != fresh || c.Drops() != 1 {
		t.Fatalf("two intervals over target: got %p with %d drops, want the fresh packet behind one drop", got, c.Drops())
	}
	at(215)
	c.Dequeue()
	at(216)
	enq(2)
	at(310) // past the first drop's dropNext (307 ms)
	c.Dequeue()
	if c.Drops() != 1 {
		t.Fatalf("%d drops: the episode resumed although the head fell under target right after its first drop", c.Drops())
	}
}

func TestCoDelHardLimit(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCoDel(eng, 5)
	for i := 0; i < 10; i++ {
		c.Enqueue(mkpkt(0, 100))
	}
	if c.Len() != 5 || c.Drops() != 5 {
		t.Fatalf("len=%d drops=%d, want 5/5", c.Len(), c.Drops())
	}
}

func TestREDNoDropsBelowMinThreshold(t *testing.T) {
	r := NewRED(sim.NewEngine(1), 100*pkt.MTU)
	// Keep occupancy well below limit/4.
	for i := 0; i < 2000; i++ {
		if !r.Enqueue(mkpkt(0, pkt.MTU)) {
			t.Fatal("drop below min threshold")
		}
		r.Dequeue()
	}
	if r.Drops() != 0 {
		t.Fatalf("drops = %d below min threshold", r.Drops())
	}
}

func TestREDEarlyDropsBetweenThresholds(t *testing.T) {
	r := NewRED(sim.NewEngine(2), 100*pkt.MTU)
	// Hold occupancy around half the limit so the EWMA settles between
	// the thresholds.
	accepted, offered := 0, 0
	for i := 0; i < 5000; i++ {
		offered++
		if r.Enqueue(mkpkt(0, pkt.MTU)) {
			accepted++
		}
		if r.Len() > 50 {
			r.Dequeue()
		}
	}
	if r.Drops() == 0 {
		t.Fatal("no early drops with standing queue between thresholds")
	}
	if accepted == 0 {
		t.Fatal("RED dropped everything")
	}
}

func TestREDFullQueueAlwaysDrops(t *testing.T) {
	r := NewRED(sim.NewEngine(3), 10*pkt.MTU)
	for i := 0; i < 20; i++ {
		r.Enqueue(mkpkt(0, pkt.MTU))
	}
	if r.Bytes() > 10*pkt.MTU {
		t.Fatal("hard limit exceeded")
	}
}

func TestDRRFairnessAcrossFlows(t *testing.T) {
	d := NewDRR(10000)
	for i := 0; i < 90; i++ {
		d.Enqueue(mkpkt(1, pkt.MTU))
	}
	for i := 0; i < 10; i++ {
		d.Enqueue(mkpkt(2, pkt.MTU))
	}
	counts := map[uint16]int{}
	for i := 0; i < 20; i++ {
		p := d.Dequeue()
		counts[p.Src.Port]++
	}
	if counts[1002] < 9 {
		t.Fatalf("thin flow got %d of first 20 slots, want ≈10 (%v)", counts[1002], counts)
	}
}

func TestDRRUnequalPacketSizesStillFairInBytes(t *testing.T) {
	d := NewDRR(10000)
	// Flow 1 sends 1500-byte packets, flow 2 sends 300-byte packets; byte
	// fairness means flow 2 gets ~5 packets per flow-1 packet.
	for i := 0; i < 100; i++ {
		d.Enqueue(mkpkt(1, 1500))
	}
	for i := 0; i < 500; i++ {
		d.Enqueue(mkpkt(2, 300))
	}
	bytes := map[uint16]int{}
	for i := 0; i < 120; i++ {
		p := d.Dequeue()
		bytes[p.Src.Port] += p.Size
	}
	ratio := float64(bytes[1001]) / float64(bytes[1002])
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("byte split %v (ratio %.2f), want ≈ equal", bytes, ratio)
	}
}

func TestDRRDrainsAndCleansUp(t *testing.T) {
	d := NewDRR(1000)
	for f := 0; f < 30; f++ {
		for i := 0; i < 5; i++ {
			d.Enqueue(mkpkt(f, 500))
		}
	}
	n := 0
	for d.Dequeue() != nil {
		n++
	}
	if n != 150 {
		t.Fatalf("drained %d of 150", n)
	}
	if len(d.flows) != 0 {
		t.Fatalf("%d stale flow entries after drain", len(d.flows))
	}
}

func TestDRROverflowDropsFromFattest(t *testing.T) {
	d := NewDRR(10)
	for i := 0; i < 9; i++ {
		d.Enqueue(mkpkt(1, pkt.MTU))
	}
	d.Enqueue(mkpkt(2, pkt.MTU))
	if !d.Enqueue(mkpkt(2, pkt.MTU)) {
		t.Fatal("thin flow displaced instead of fat flow")
	}
	counts := map[uint16]int{}
	for p := d.Dequeue(); p != nil; p = d.Dequeue() {
		counts[p.Src.Port]++
	}
	if counts[1001] != 8 || counts[1002] != 2 {
		t.Fatalf("survivors %v, want fat=8 thin=2", counts)
	}
}

func TestPIEKeepsDelayNearTarget(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPIE(eng, 10000)
	defer p.Stop()
	// Overload: 1.2x the drain rate; PIE should hold the queue near its
	// 15 ms target rather than letting it grow to the limit.
	drainEvery := sim.Time(float64(pkt.MTU*8) / 96e6 * float64(sim.Second))
	eng.Tick(drainEvery, func() { p.Dequeue() })
	arriveEvery := sim.Time(float64(drainEvery) / 1.2)
	i := 0
	eng.Tick(arriveEvery, func() {
		i++
		p.Enqueue(mkpkt(0, pkt.MTU))
	})
	eng.RunUntil(20 * sim.Second)
	// Queue delay at drain rate 96 Mbit/s.
	qd := float64(p.Bytes()*8) / 96e6 * 1000
	if qd > 60 {
		t.Fatalf("PIE standing queue %.1fms, want near 15ms target", qd)
	}
	if p.Drops() == 0 {
		t.Fatal("PIE never dropped under overload")
	}
}

func TestPIENoDropsWhenIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPIE(eng, 100)
	defer p.Stop()
	for i := 0; i < 500; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
		p.Enqueue(mkpkt(0, pkt.MTU))
		if p.Dequeue() == nil {
			t.Fatal("unexpected empty")
		}
	}
	if p.Drops() != 0 {
		t.Fatalf("PIE dropped %d packets on an unloaded queue", p.Drops())
	}
}

// All new qdiscs satisfy the interface and conserve packets.
func TestAQMConservation(t *testing.T) {
	eng := sim.NewEngine(9)
	builders := map[string]func() Qdisc{
		"codel": func() Qdisc { return NewCoDel(eng, 60) },
		"red":   func() Qdisc { return NewRED(eng, 60*pkt.MTU) },
		"drr":   func() Qdisc { return NewDRR(60) },
	}
	for name, build := range builders {
		q := build()
		accepted := 0
		for i := 0; i < 500; i++ {
			if q.Enqueue(mkpkt(i%5, 100+i%700)) {
				accepted++
			}
			if i%3 == 0 {
				if q.Dequeue() != nil {
					accepted--
				}
			}
		}
		for q.Dequeue() != nil {
			accepted--
		}
		// CoDel can drop post-acceptance; accepted must not go negative
		// and must equal post-acceptance drops for the others.
		if accepted < 0 {
			t.Fatalf("%s: dequeued more than accepted", name)
		}
	}
}
