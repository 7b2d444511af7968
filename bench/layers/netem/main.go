// Driver for the netem layer: one packet through a store-and-forward
// Link (enqueue, serialize, propagate, deliver into a Sink), a pure
// delay Pipe, and the order-preserving Jitter the meshes use. Every
// simulated packet crosses two or three links, so netem.link_ns should
// move pkts_per_s on all simulation workloads.
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

// burst is how many packets arrive back to back before the engine
// drains them: enough to queue behind the serializer, as a window does.
const burst = 64

func through(eng *sim.Engine, hop netem.Receiver, n int) {
	for sent := 0; sent < n; {
		for i := 0; i < burst && sent < n; i++ {
			p := pkt.Get()
			p.Size = pkt.MTU
			p.IPID = uint16(sent)
			hop.Receive(p)
			sent++
		}
		eng.Run()
	}
}

func main() {
	lb.Main(func(o lb.Out) error {
		eng := sim.NewEngine(lb.Seed)
		sink := &netem.Sink{}
		link := netem.NewLink(eng, "bench", 96e6, 25*sim.Millisecond, qdisc.NewFIFO(1<<20), sink)
		o["netem.link_ns"], o["netem.link_allocs"] = lb.Time(func(n int) { through(eng, link, n) })
		pipe := netem.NewPipe(eng, 25*sim.Millisecond, sink)
		o["netem.pipe_ns"], _ = lb.Time(func(n int) { through(eng, pipe, n) })
		jitter := netem.NewOrderedJitter(eng, 2*sim.Millisecond, sink)
		o["netem.jitter_ns"], _ = lb.Time(func(n int) { through(eng, jitter, n) })
		return nil
	})
}
