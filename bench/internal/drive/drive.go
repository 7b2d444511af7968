// Package drive holds the calls into the program that the runner and
// more than one layer driver make the same way: loading a workload
// config, and one cold-then-warm sweep.
package drive

import (
	"os"
	"path/filepath"
	"time"

	"bundler/internal/exp"
	"bundler/internal/runstore"
	"bundler/internal/topo"
)

// SweepGrid is the megasweep grid: 3 modes x 8 base latencies x 2 loads
// x 3 delays = 144 cells. Callers append requests= and seed= axes.
const SweepGrid = "mode=fifo,sp,wfq;baselatency=10ms,50ms,100ms,200ms,300ms,400ms,500ms,1000ms;load=10e6,30e6;delay=24ms,16ms,10ms"

// LoadExperiment is the set-up every simulation workload pays: read,
// parse, validate (a dry compile of every run) and wrap the config
// workloads/<name>.json under dir.
func LoadExperiment(dir, name string) (exp.Experiment, error) {
	data, err := os.ReadFile(filepath.Join(dir, "workloads", name+".json"))
	if err != nil {
		return nil, err
	}
	cfg, err := topo.Parse(data)
	if err != nil {
		return nil, err
	}
	if err := topo.Validate(cfg); err != nil {
		return nil, err
	}
	return topo.Experiment(cfg), nil
}

// Sweep is one cold sweep of the grid into a fresh run store at dir,
// followed by one warm resume over the same store.
type Sweep struct {
	Cold, Warm         []exp.Result
	WarmStats          exp.Stats
	ColdTime, WarmTime time.Duration
}

// ColdWarm runs the sweep with the given worker count. dir must not
// hold a store yet; the caller removes it.
func ColdWarm(e exp.Experiment, g exp.Grid, parallel int, dir string) (Sweep, error) {
	var s Sweep
	store, err := runstore.Open(dir)
	if err != nil {
		return s, err
	}
	opt := exp.Options{Parallel: parallel, Cache: store}
	t0 := time.Now()
	s.Cold, _, err = exp.SweepOpts(e, g, opt)
	s.ColdTime = time.Since(t0)
	if err != nil {
		return s, err
	}
	if err := store.Err(); err != nil {
		return s, err
	}
	opt.Resume = true
	t0 = time.Now()
	s.Warm, s.WarmStats, err = exp.SweepOpts(e, g, opt)
	s.WarmTime = time.Since(t0)
	return s, err
}
