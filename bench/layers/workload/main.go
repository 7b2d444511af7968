// Driver for the workload layer: drawing a request size from the paper's
// web CDF and recording one completed flow. Both are per flow, so they
// should move pkts_per_s only where flows are short: mesh64 and
// sched_sweep.
package main

import (
	"math/rand"

	"bundler/bench/internal/lb"
	"bundler/internal/sim"
	"bundler/internal/workload"
)

var sink int64

func main() {
	lb.Main(func(o lb.Out) error {
		rng := rand.New(rand.NewSource(lb.Seed))
		dist := workload.PaperWebCDF()
		o["workload.sample_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				sink += dist.Sample(rng)
			}
		})
		sizes := make([]int64, 4096)
		for i := range sizes {
			sizes[i] = dist.Sample(rng)
		}
		o["workload.record_ns"], _ = lb.Time(func(n int) {
			rec := workload.NewRecorder(96e6, 50*sim.Millisecond)
			rec.Reserve(n)
			for i := 0; i < n; i++ {
				rec.Record(sizes[i%len(sizes)], sim.Time(60+i%40)*sim.Millisecond)
			}
		})
		return nil
	})
}
