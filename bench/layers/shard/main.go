// Driver for the sim/shard layer: the mesh64 workload with the Go
// scheduler held to one core against all of them. mesh64 leaves the
// shard count on auto, which follows GOMAXPROCS, so the ratio is what
// the sharded engine buys (par_speedup) and what it costs in CPU
// (cpu_ratio). Should move pkts_per_s and cpu_s_per_mpkt on mesh64 only.
package main

import (
	"runtime"
	"time"

	"bundler/bench/internal/drive"
	"bundler/bench/internal/lb"
	"bundler/internal/pkt"
)

// passes is how many timed passes each side gets, alternating so that
// heap growth lands on both.
const passes = 3

func main() {
	lb.Main(func(o lb.Out) error {
		e, err := drive.LoadExperiment(lb.Dir, "mesh64")
		if err != nil {
			return err
		}
		all := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(all)
		// pass returns packets per wall second and CPU seconds per packet.
		pass := func(procs int) (float64, float64, error) {
			runtime.GOMAXPROCS(procs)
			pk0, cpu0, t0 := pkt.Stats().Gets, lb.CPUSeconds(), time.Now()
			_, err := e.Run(lb.Seed, nil)
			wall := time.Since(t0).Seconds()
			n := float64(pkt.Stats().Gets - pk0)
			return n / wall, (lb.CPUSeconds() - cpu0) / n, err
		}
		if _, _, err := pass(all); err != nil { // warm the heap
			return err
		}
		var rate, cpu [2][]float64
		for i := 0; i < passes; i++ {
			for side, procs := range []int{1, all} {
				r, c, err := pass(procs)
				if err != nil {
					return err
				}
				rate[side], cpu[side] = append(rate[side], r), append(cpu[side], c)
			}
		}
		o["shard.par_speedup"] = lb.Median(rate[1]) / lb.Median(rate[0])
		o["shard.cpu_ratio"] = lb.Median(cpu[1]) / lb.Median(cpu[0])
		return nil
	})
}
