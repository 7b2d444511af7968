package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"bundler/bench/internal/drive"
	"bundler/internal/exp"
)

// The end-to-end path reaches the program only through topo.Parse /
// Validate / Experiment, exp.Experiment.Run, exp.ParseGrid / SweepOpts,
// runstore and pkt.Stats / Live: the surface ROADMAP's open items keep.

// workloads lists the workloads in the order they run. BENCHMARK.json
// and README.md say why each is here.
var workloads = []workload{
	{name: "dumbbell_web", warmup: 2, setup: simSetup("dumbbell_web", func(scale int) (exp.Params, int) {
		requests := scaled(15000, scale)
		return exp.Params{"requests": strconv.Itoa(requests)}, 4 * requests
	})},
	{name: "mesh64", warmup: 3, setup: simSetup("mesh64", func(scale int) (exp.Params, int) {
		sites := 64
		if scale > 1 {
			sites = 8
		}
		return exp.Params{"sites": strconv.Itoa(sites)}, 2 * sites * (sites - 1)
	})},
	{name: "bg_users", warmup: 2, setup: simSetup("bg_users", func(scale int) (exp.Params, int) {
		requests := scaled(1000, scale)
		return exp.Params{"requests": strconv.Itoa(requests)}, 2 * 4 * 3 * requests
	})},
	{name: "sched_sweep", warmup: 1, setup: sweepSetup},
}

func scaled(n, scale int) int { return max(n/scale, 1) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sourceHash is the config's canonical content hash, as the run store
// keys it.
func sourceHash(e exp.Experiment) string {
	if h, ok := e.(interface{ SourceHash() string }); ok {
		return h.SourceHash()
	}
	return ""
}

// check applies the output checks to one pass: no Err, the */completed
// counts add up to the flows requested, and a sweep's warm resume
// executed nothing and reproduced the cold pass byte for byte. It runs
// after the pass has been measured, so that encoding and hashing the
// results is not priced as simulation.
func check(inst *instance, sw drive.Sweep) (outcome, error) {
	blob, err := json.Marshal(sw.Cold)
	if err != nil {
		return outcome{}, fmt.Errorf("encode results: %w", err)
	}
	sum := sha256.Sum256(blob)
	out := outcome{digest: hex.EncodeToString(sum[:]), ops: inst.flows + inst.cells}
	fail := func(n int, format string, args ...any) {
		out.failed += n
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
	}
	completed := 0
	for i, r := range sw.Cold {
		if r.Err != "" {
			fail(1, "cell %d: %s", i, r.Err)
		}
		for _, m := range r.Metrics {
			if strings.HasSuffix(m.Name, "/completed") {
				completed += int(m.Value)
			}
		}
	}
	if completed != inst.flows {
		fail(max(inst.flows-completed, 1), "flows completed %d of %d", completed, inst.flows)
	}
	if inst.cells == 0 {
		return out, nil
	}
	if n := sw.WarmStats.Executed; n != 0 {
		fail(n, "warm resume executed %d cells", n)
	}
	warm, err := json.Marshal(sw.Warm)
	if err != nil {
		return outcome{}, fmt.Errorf("encode warm results: %w", err)
	}
	if !bytes.Equal(blob, warm) {
		fail(1, "warm resume output differs from the cold pass")
	}
	return out, nil
}

// simSetup is a workload that runs one config experiment whole per pass.
// input gives, for a request scale, the params and the flows they request.
func simSetup(name string, input func(scale int) (exp.Params, int)) func(runConfig) (*instance, error) {
	return func(c runConfig) (*instance, error) {
		e, err := drive.LoadExperiment(c.dir, name)
		if err != nil {
			return nil, err
		}
		params, flows := input(c.scale)
		return &instance{
			run: func(seed int64) (drive.Sweep, error) {
				res, err := e.Run(seed, params.Clone())
				return drive.Sweep{Cold: []exp.Result{res}}, err
			},
			flows: flows,
			info:  map[string]any{"config_hash": sourceHash(e), "params": params, "flows_per_pass": flows},
		}, nil
	}
}

// sweepSetup is the sched_sweep workload: a pass runs the grid cold into
// a fresh run store, then resumes it warm from the same store.
func sweepSetup(c runConfig) (*instance, error) {
	e, err := drive.LoadExperiment(c.dir, "sched_sweep")
	if err != nil {
		return nil, err
	}
	requests := scaled(400, c.scale)
	grid, err := exp.ParseGrid(fmt.Sprintf("%s;requests=%d", drive.SweepGrid, requests))
	if err != nil {
		return nil, err
	}
	cells, workers := grid.Size(), runtime.NumCPU()
	return &instance{
		run: func(seed int64) (drive.Sweep, error) {
			// The store is made by the pass: a directory made at set-up
			// would put the file system's latency into setup_s.
			dir := filepath.Join(c.tmp, fmt.Sprintf("runstore-%d-%d", os.Getpid(), seed))
			defer os.RemoveAll(dir)
			g := grid
			g.Seeds = []int64{seed}
			return drive.ColdWarm(e, g, workers, dir)
		},
		flows: cells * 2 * requests,
		cells: cells,
		info: map[string]any{"config_hash": sourceHash(e), "grid": drive.SweepGrid, "cells": cells,
			"requests_per_class": requests, "parallel": workers, "store": "fresh per pass, then one resume"},
	}, nil
}
