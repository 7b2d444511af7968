// Driver for the stats layer at n = 100 000 values: the exact Sample
// (dumbbell_web and sched_sweep report with it) and the bounded Sketch
// (bg_users records into it, and meshes merge one per site pair).
package main

import (
	"math/rand"

	"bundler/bench/internal/lb"
	"bundler/internal/stats"
)

const size = 100000

var sink float64

func main() {
	lb.Main(func(o lb.Out) error {
		rng := rand.New(rand.NewSource(lb.Seed))
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = 1 + rng.ExpFloat64()*3 // slowdown-shaped: >= 1, long tail
		}

		o["stats.sample_add_ns"], _ = lb.Time(func(n int) {
			var s stats.Sample
			for i := 0; i < n; i++ {
				if i%size == 0 {
					s.Reset()
				}
				s.Add(vals[i%size])
			}
		})
		// A quantile after new data is what a report pays: the sample
		// sorts on first use.
		var s stats.Sample
		ns, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				s.Reset()
				for _, v := range vals {
					s.Add(v)
				}
				sink += s.Quantile(0.99)
			}
		})
		fill, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				s.Reset()
				for _, v := range vals {
					s.Add(v)
				}
			}
		})
		o["stats.sample_quantile_us"] = (ns - fill) / 1e3

		sk := stats.NewSketch()
		o["stats.sketch_add_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				sk.Add(vals[i%size])
			}
		})
		sk.Reset()
		for _, v := range vals {
			sk.Add(v)
		}
		ns, _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				sink += sk.Quantile(0.99)
			}
		})
		o["stats.sketch_quantile_us"] = ns / 1e3
		ns, _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				into := stats.NewSketch()
				into.Merge(sk)
			}
		})
		o["stats.sketch_merge_us"] = ns / 1e3
		return nil
	})
}
