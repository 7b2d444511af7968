package fluid

import (
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

func mklink(eng *sim.Engine, rate float64) (*netem.Link, *netem.Sink) {
	sink := &netem.Sink{}
	l := netem.NewLink(eng, "l", rate, 5*sim.Millisecond, qdisc.NewFIFO(200*pkt.MTU), sink)
	return l, sink
}

// TestFluidAIMDFillsIdleLink: with no foreground packets, one aggregate
// converges onto the link's fluid share (capacity minus the foreground
// headroom) and its AIMD probe sees loss along the way.
func TestFluidAIMDFillsIdleLink(t *testing.T) {
	eng := sim.NewEngine(1)
	link, _ := mklink(eng, 48e6)
	agg := Attach(eng, link, 0)
	agg.AddClass(Class{Name: "bulk", Users: 100, RTT: 50 * sim.Millisecond})

	const horizon = 30
	eng.RunUntil(horizon * sim.Second)

	goodput := agg.DeliveredBytes() * 8 / horizon
	share := 48e6 * (1 - ForegroundHeadroom)
	if goodput < 0.80*share || goodput > 1.001*share {
		t.Fatalf("fluid goodput %.1f Mbit/s, want ≈ %.1f (the link's fluid share)", goodput/1e6, share/1e6)
	}
	if agg.LostBytes() == 0 {
		t.Fatal("AIMD never saw loss: the probe is not reaching the buffer limit")
	}
	if agg.backlog < 0 {
		t.Fatalf("negative backlog %f", agg.backlog)
	}
}

// TestFluidSharesWithForegroundPackets: foreground packets offered at a
// third of capacity keep their throughput while the fluid aggregate
// absorbs (most of) the rest — the two-way coupling through measured
// BytesSent and effRate.
func TestFluidSharesWithForegroundPackets(t *testing.T) {
	eng := sim.NewEngine(2)
	link, sink := mklink(eng, 48e6)
	agg := Attach(eng, link, 0)
	agg.AddClass(Class{Name: "bulk", Users: 50, RTT: 50 * sim.Millisecond})

	// Foreground: one MTU every 750 µs = 16 Mbit/s offered.
	period := sim.Time(float64(pkt.MTU*8) / 16e6 * float64(sim.Second))
	eng.Tick(period, func() {
		link.Receive(&pkt.Packet{Size: pkt.MTU})
	})

	const horizon = 30
	eng.RunUntil(horizon * sim.Second)

	fgBps := float64(link.BytesSent()) * 8 / horizon
	if fgBps < 0.90*16e6 {
		t.Fatalf("foreground squeezed to %.1f Mbit/s of its 16 offered: fluid load is starving the packet path", fgBps/1e6)
	}
	fluidBps := agg.DeliveredBytes() * 8 / horizon
	residual := 48e6*(1-ForegroundHeadroom) - 16e6
	if fluidBps < 0.6*residual || fluidBps > 1.1*residual {
		t.Fatalf("fluid took %.1f Mbit/s, want ≈ residual %.1f", fluidBps/1e6, residual/1e6)
	}
	if sink.Count == 0 {
		t.Fatal("no foreground packets delivered")
	}
}

// TestFluidLoadSlowsSerialization: the direct netem coupling — a link
// carrying a 50% fluid share serializes foreground packets at half
// speed, and fluid backlog shows up in QueueDelay.
func TestFluidLoadSlowsSerialization(t *testing.T) {
	drain := func(fluidBps float64) sim.Time {
		eng := sim.NewEngine(3)
		var last sim.Time
		delivered := 0
		dst := netem.ReceiverFunc(func(p *pkt.Packet) { delivered++; last = eng.Now(); pkt.Put(p) })
		link := netem.NewLink(eng, "l", 96e6, 5*sim.Millisecond, qdisc.NewFIFO(200*pkt.MTU), dst)
		link.SetFluidLoad(fluidBps, 0)
		for i := 0; i < 100; i++ {
			link.Receive(&pkt.Packet{Size: pkt.MTU})
		}
		eng.RunUntil(10 * sim.Second)
		if delivered != 100 {
			t.Fatalf("delivered %d of 100", delivered)
		}
		return last
	}
	// 100 MTU at 96 Mbit/s = 12.5 ms serialization (+5 ms delay); at the
	// halved effective rate it must take twice the serialization time.
	base := drain(0)
	halved := drain(48e6)
	if halved < base+11*sim.Millisecond || halved > base+14*sim.Millisecond {
		t.Fatalf("halving capacity moved drain time %v → %v, want ≈ +12.5ms", base, halved)
	}

	eng := sim.NewEngine(4)
	link, _ := mklink(eng, 96e6)
	if link.QueueDelay() != 0 {
		t.Fatal("idle link reports queue delay")
	}
	link.SetFluidLoad(0, 120000) // 120 KB backlog at 96 Mbit/s = 10 ms
	qd := link.QueueDelay()
	if qd < 9*sim.Millisecond || qd > 11*sim.Millisecond {
		t.Fatalf("fluid backlog queue delay %v, want ≈10ms", qd)
	}
}

// TestFluidStateIndependentOfUsers: the whole point — a million-user
// aggregate is the same state as a ten-user one, and the run completes
// in the same number of events.
func TestFluidStateIndependentOfUsers(t *testing.T) {
	run := func(users int) float64 {
		eng := sim.NewEngine(5)
		link, _ := mklink(eng, 96e6)
		agg := Attach(eng, link, 0)
		agg.AddClass(Class{Name: "bg", Users: users, RTT: 50 * sim.Millisecond})
		eng.RunUntil(10 * sim.Second)
		return agg.DeliveredBytes()
	}
	small := run(10)
	huge := run(1000000)
	// Both saturate their share; the huge aggregate is floor-pinned so it
	// must deliver at least as much as the small one.
	if huge < small {
		t.Fatalf("10⁶-user aggregate delivered %.0f < 10-user %.0f", huge, small)
	}
}

// TestFluidDeterminism: two identical runs produce identical floats —
// the fluid step is pure arithmetic on the engine's deterministic clock.
func TestFluidDeterminism(t *testing.T) {
	run := func() (float64, float64, float64) {
		eng := sim.NewEngine(6)
		link, _ := mklink(eng, 48e6)
		agg := Attach(eng, link, 0)
		agg.AddClass(Class{Name: "a", Users: 40, RTT: 30 * sim.Millisecond})
		eng.RunUntil(20 * sim.Second)
		return agg.DeliveredBytes(), agg.LostBytes(), agg.rate
	}
	d1, l1, r1 := run()
	d2, l2, r2 := run()
	if d1 != d2 || l1 != l2 || r1 != r2 {
		t.Fatalf("nondeterministic fluid state: (%v,%v,%v) vs (%v,%v,%v)", d1, l1, r1, d2, l2, r2)
	}
}

// TestFluidOneClassPerAggregate: a second AddClass panics instead of
// sharing the link's single fluid load.
func TestFluidOneClassPerAggregate(t *testing.T) {
	eng := sim.NewEngine(8)
	link, _ := mklink(eng, 48e6)
	agg := Attach(eng, link, 0)
	agg.AddClass(Class{Name: "a", Users: 40, RTT: 30 * sim.Millisecond})
	defer func() {
		if recover() == nil {
			t.Fatal("second AddClass did not panic")
		}
	}()
	agg.AddClass(Class{Name: "b", Users: 10, RTT: 90 * sim.Millisecond})
}

// TestFluidStopWithdrawsLoad: Stop must both cancel the ticker and zero
// the link's fluid share so a torn-down aggregate leaves no ghost load.
func TestFluidStopWithdrawsLoad(t *testing.T) {
	eng := sim.NewEngine(7)
	link, _ := mklink(eng, 48e6)
	agg := Attach(eng, link, 0)
	agg.AddClass(Class{Name: "bg", Users: 100, RTT: 50 * sim.Millisecond})
	eng.RunUntil(5 * sim.Second)
	if link.FluidBps() == 0 {
		t.Fatal("aggregate never loaded the link")
	}
	agg.Stop()
	if link.FluidBps() != 0 || link.FluidBacklogBytes() != 0 {
		t.Fatal("Stop left fluid load on the link")
	}
}
