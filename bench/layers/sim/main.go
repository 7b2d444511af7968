// Driver for the sim layer: the event heap at a steady 1 024 pending
// events, and a component timer re-armed in place. About six events are
// scheduled per simulated packet, so sim.sched_ns should move pkts_per_s
// on dumbbell_web and bg_users.
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/sim"
)

const pending = 1024

func main() {
	lb.Main(func(o lb.Out) error {
		// Each event reschedules itself a pseudo-random delay ahead, so
		// the heap stays at 1 024 entries and every pop sifts.
		eng := sim.NewEngine(lb.Seed)
		left := 0
		var fire func(a0, a1 any)
		fire = func(a0, _ any) {
			left--
			if left <= 0 {
				eng.Stop()
			}
			eng.CallAfter(sim.Time(1+eng.Rand().Intn(1000))*sim.Microsecond, fire, a0, nil)
		}
		for i := 0; i < pending; i++ {
			eng.CallAfter(sim.Time(i)*sim.Microsecond, fire, nil, nil)
		}
		o["sim.sched_ns"], o["sim.sched_allocs"] = lb.Time(func(n int) {
			left = n
			eng.Run()
		})

		// A retransmission-timer pattern: arm, push the deadline out
		// (re-arm while pending), stop, among 1 024 other armed timers.
		eng = sim.NewEngine(lb.Seed)
		for i := 0; i < pending; i++ {
			eng.NewTimer(func() {}).ArmAfter(sim.Time(i+1) * sim.Second)
		}
		t := eng.NewTimer(func() {})
		o["sim.timer_rearm_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				t.ArmAfter(200 * sim.Millisecond)
				t.ArmAfter(300 * sim.Millisecond)
				t.Stop()
			}
		})
		return nil
	})
}
