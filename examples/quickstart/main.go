// Quickstart: build a two-site emulated network, attach a Bundler pair,
// run a handful of TCP transfers through it, and watch the queue shift
// from the in-network bottleneck to the sendbox where SFQ schedules it.
package main

import (
	"fmt"

	"bundler/internal/scenario"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

func main() {
	// A 96 Mbit/s bottleneck with 50 ms of propagation RTT and a 2-BDP
	// droptail buffer: the paper's §7.1 emulated path.
	net := scenario.NewNet(scenario.NetConfig{Seed: 42})

	// One site pairing with the default Bundler configuration: Copa inner
	// loop, Nimbus cross-traffic detection, SFQ scheduling.
	site := net.AddSite(scenario.DefaultBundleConfig())

	// A long-running backlogged transfer plus a stream of short requests.
	bulk := site.AddFlow(1<<40, tcp.NewCubic(), nil)
	var shortFCTs []sim.Time
	launchShort := func() {
		site.AddFlow(50<<10, tcp.NewCubic(), func(_ int64, fct sim.Time) {
			shortFCTs = append(shortFCTs, fct)
		})
	}
	net.Eng.Tick(2*sim.Second, launchShort)

	// Observe where the queue lives once per second.
	fmt.Println("time   pacing-rate  sendbox-queue  bottleneck-queue  mode")
	net.Eng.Tick(5*sim.Second, func() {
		fmt.Printf("%5s  %8.1f Mb/s %10.1f ms %13.1f ms   %v\n",
			net.Eng.Now(), site.SB.CurrentRate()/1e6,
			site.SB.QueueDelay().Millis(), net.Bottleneck.QueueDelay().Millis(),
			site.SB.Mode())
	})

	net.Eng.RunUntil(30 * sim.Second)
	site.SB.Stop()

	fmt.Printf("\nbulk transfer moved %.1f MB (%.1f Mbit/s)\n",
		float64(bulk.Acked())/1e6, float64(bulk.Acked())*8/30/1e6)
	var sum sim.Time
	for _, f := range shortFCTs {
		sum += f
	}
	if len(shortFCTs) > 0 {
		fmt.Printf("%d short requests finished, mean FCT %.1f ms — SFQ at the sendbox\n",
			len(shortFCTs), (sum / sim.Time(len(shortFCTs))).Millis())
		fmt.Println("keeps them from queueing behind the bulk transfer.")
	}
}
