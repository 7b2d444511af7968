// Driver for the report layer: DiffResults over two 144-cell result
// sets, what a CI gate comparing two sweeps pays. It moves none of the
// end-to-end metrics today; it is recorded so a later gate can budget it.
package main

import (
	"fmt"
	"runtime"

	"bundler/bench/internal/drive"
	"bundler/bench/internal/lb"
	"bundler/internal/exp"
	"bundler/internal/report"
)

func main() {
	lb.Main(func(o lb.Out) error {
		e, err := drive.LoadExperiment(lb.Dir, "sched_sweep")
		if err != nil {
			return err
		}
		// Ten requests per class keep the sweep short; the cells carry the
		// same metrics and report text as full ones.
		grid, err := exp.ParseGrid(fmt.Sprintf("%s;requests=10;seed=%d", drive.SweepGrid, lb.Seed))
		if err != nil {
			return err
		}
		cells, _, err := exp.SweepOpts(e, grid, exp.Options{Parallel: runtime.NumCPU()})
		if err != nil {
			return err
		}
		again := append([]exp.Result(nil), cells...)
		ns, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				report.DiffResults(cells, again, report.Options{})
			}
		})
		o["report.diff_ms"] = ns / 1e6
		return nil
	})
}
