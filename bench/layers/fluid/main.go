// Driver for the fluid layer: one rate-ODE step of a 100 000-user
// background aggregate on a 96 Mbit/s link, as every bg_users site runs
// each 10 ms of virtual time. Should move pkts_per_s on bg_users only.
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/fluid"
	"bundler/internal/netem"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

func main() {
	lb.Main(func(o lb.Out) error {
		eng := sim.NewEngine(lb.Seed)
		link := netem.NewLink(eng, "access", 96e6, 12*sim.Millisecond, qdisc.NewFIFO(1<<20), &netem.Sink{})
		agg := fluid.Attach(eng, link, fluid.DefaultStep)
		agg.AddClass(fluid.Class{Name: "background", Users: 100000, RTT: 50 * sim.Millisecond})
		defer agg.Stop()
		o["fluid.tick_ns"], _ = lb.Time(func(n int) {
			eng.RunUntil(eng.Now() + sim.Time(n)*fluid.DefaultStep)
		})
		return nil
	})
}
