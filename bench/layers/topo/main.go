// Driver for the topo layer: parsing a workload config, and the floor
// cost of one sweep cell - compiling and running the sched_sweep config
// with one request per class, before any real traffic. Should move
// pkts_per_s on sched_sweep (144 cells a pass) and setup_s on
// sched_sweep and mesh64.
package main

import (
	"os"
	"path/filepath"

	"bundler/bench/internal/drive"
	"bundler/bench/internal/lb"
	"bundler/internal/exp"
	"bundler/internal/topo"
)

func main() {
	lb.Main(func(o lb.Out) error {
		data, err := os.ReadFile(filepath.Join(lb.Dir, "workloads", "sched_sweep.json"))
		if err != nil {
			return err
		}
		ns, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := topo.Parse(data); err != nil {
					panic(err)
				}
			}
		})
		o["topo.parse_us"] = ns / 1e3

		e, err := drive.LoadExperiment(lb.Dir, "sched_sweep")
		if err != nil {
			return err
		}
		ns, allocs := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := e.Run(lb.Seed, exp.Params{"requests": "1"}); err != nil {
					panic(err)
				}
			}
		})
		o["topo.cell_floor_us"], o["topo.cell_floor_allocs"] = ns/1e3, allocs
		return nil
	})
}
