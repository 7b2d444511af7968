// Driver for the exp layer: what the sweep runner itself costs per cell
// - grid enumeration, the worker pool, result collection - over the
// 144-cell sched_sweep grid with an experiment that does nothing. Should
// move pkts_per_s on sched_sweep only, and little: a cell is ~10 ms.
package main

import (
	"runtime"

	"bundler/bench/internal/drive"
	"bundler/bench/internal/lb"
	"bundler/internal/exp"
)

// noop declares the grid's axes and returns an empty result.
type noop struct{}

func (noop) Name() string { return "noop" }
func (noop) Desc() string { return "does nothing" }
func (noop) Params() []exp.Param {
	return []exp.Param{{Name: "mode"}, {Name: "baselatency"}, {Name: "load"}, {Name: "delay"}}
}
func (noop) Run(seed int64, p exp.Params) (exp.Result, error) {
	return exp.Result{Experiment: "noop", Seed: seed, Params: p}, nil
}

func main() {
	lb.Main(func(o lb.Out) error {
		grid, err := exp.ParseGrid(drive.SweepGrid)
		if err != nil {
			return err
		}
		opt := exp.Options{Parallel: runtime.NumCPU()}
		ns, _ := lb.Time(func(n int) {
			for done := 0; done < n; done += grid.Size() {
				if _, _, err := exp.SweepOpts(noop{}, grid, opt); err != nil {
					panic(err)
				}
			}
		})
		// Time counts n cells; the loop rounds n up to whole sweeps, which
		// at tens of sweeps per repetition is within a few percent.
		o["exp.sweep_overhead_us"] = ns / 1e3
		return nil
	})
}
