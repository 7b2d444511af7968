package topo

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzConfig: whatever the bytes, Parse and then compile of every run
// (with default parameters; nothing is simulated) return an error or a
// value — the config decoder, "$param" expansion and the compiler's
// validation never panic on outside input. Seeded with every shipped
// config.
func FuzzConfig(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(configsDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no shipped configs in %s: %v", configsDir, err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		pv, err := cfg.paramValues(nil)
		if err != nil {
			return
		}
		if tooBigToCompile(cfg, pv) {
			t.Skip()
		}
		for _, r := range cfg.runList() {
			compile(merged(cfg.Base, r), 1, pv)
		}
	})
}

// tooBigToCompile reports whether cfg asks compile to build more than a
// fuzz iteration should: compile starts every bulk flow, builds a mesh's
// N·(N-1) pairs and sizes each web recorder by its request count up
// front, so one mutated digit would turn the hunt for panics into one
// for memory. The shipped configs' defaults all fit.
func tooBigToCompile(cfg *Config, pv map[string]string) bool {
	big := func(s string, limit int) bool {
		v, err := expand(s, pv)
		if err != nil {
			return false
		}
		n, err := strconv.Atoi(v)
		return err == nil && n > limit
	}
	const maxSites, maxFlows, maxRequests = 8, 16, 20000
	scenarios := []Scenario{cfg.Base}
	for _, r := range cfg.Runs {
		scenarios = append(scenarios, r.Scenario)
	}
	for _, sc := range scenarios {
		if m := sc.Mesh; m != nil && (big(m.Sites, maxSites) || big(m.Requests, maxRequests)) {
			return true
		}
		for _, w := range sc.Workloads {
			if big(w.Flows, maxFlows) || big(w.Requests, maxRequests) {
				return true
			}
		}
	}
	return false
}

// FuzzWebLine: for any name, counts and quantiles, appendWebLine gives
// exactly the text of the fmt format it replaced (TestWebLineMatchesFmt
// holds the hand-picked cases).
func FuzzWebLine(f *testing.F) {
	f.Add("", 0, 0, 0.0, 0.0, 0.0)
	f.Add("thirteen-rune", 299, 300, 1.005, math.Inf(1), math.NaN())
	f.Add("東京", -1, math.MaxInt64, math.Copysign(0, -1), 1e300, -0.005)
	f.Fuzz(func(t *testing.T, name string, completed, requests int, p50, p90, p99 float64) {
		checkWebLine(t, name, completed, requests, p50, p90, p99)
	})
}
