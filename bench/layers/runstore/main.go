// Driver for the runstore layer: saving and loading one sched_sweep
// cell's manifest, then the whole 144-cell sweep cold into a fresh store
// and warm from it, which gives the two rates a sweep user sees. The
// cold rate follows pkts_per_s on sched_sweep; the warm rate is the
// store's alone (0 cells execute), so it has no end-to-end twin.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bundler/bench/internal/drive"
	"bundler/bench/internal/lb"
	"bundler/internal/exp"
	"bundler/internal/runstore"
)

func main() {
	lb.Main(func(o lb.Out) error {
		e, err := drive.LoadExperiment(lb.Dir, "sched_sweep")
		if err != nil {
			return err
		}
		root, err := os.MkdirTemp(lb.Tmp, "runstore-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)

		pt := exp.Point{Seed: lb.Seed, Params: exp.Params{"mode": "wfq"}}
		res, err := e.Run(pt.Seed, pt.Params.Clone())
		if err != nil {
			return err
		}
		store, err := runstore.Open(filepath.Join(root, "one"))
		if err != nil {
			return err
		}
		ns, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				store.Save(e, pt, res, 10*time.Millisecond)
			}
		})
		o["runstore.save_us"] = ns / 1e3
		if err := store.Err(); err != nil {
			return err
		}
		ns, _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				if _, ok := store.Load(e, pt); !ok {
					panic("runstore driver: saved cell not found")
				}
			}
		})
		o["runstore.load_us"] = ns / 1e3

		grid, err := exp.ParseGrid(fmt.Sprintf("%s;seed=%d", drive.SweepGrid, lb.Seed))
		if err != nil {
			return err
		}
		sw, err := drive.ColdWarm(e, grid, runtime.NumCPU(), filepath.Join(root, "sweep"))
		if err != nil {
			return err
		}
		cells := float64(grid.Size())
		o["runstore.cold_cells_per_s"] = cells / sw.ColdTime.Seconds()
		o["runstore.resume_cells_per_s"] = cells / sw.WarmTime.Seconds()
		o["runstore.hit_frac"] = float64(sw.WarmStats.Cached) / float64(sw.WarmStats.Total)
		return nil
	})
}
