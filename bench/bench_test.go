package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readTestSpec(t *testing.T) (*spec, map[string]bool) {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("BENCHMARK.json: bad metric name %q", d.Name)
		}
		if declared[d.Name] {
			t.Errorf("BENCHMARK.json: metric %q declared twice", d.Name)
		}
		declared[d.Name] = true
	}
	return sp, declared
}

// TestSmoke runs every workload at 1/50 scale with one timed pass, and
// checks that the runner and BENCHMARK.json agree on workload and metric
// names and that no operation fails.
func TestSmoke(t *testing.T) {
	sp, declared := readTestSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the runner has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the runner", w.Name)
		}
	}
	for _, w := range workloads {
		rec, err := measure(w, runConfig{seed: 1, scale: 50, dir: ".", tmp: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, rec.Failed, rec.Attempted, rec.Failures)
		}
		for _, d := range sp.EndToEnd {
			if m, ok := rec.Metrics[d.Name]; !ok || m.Value == nil || *m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.name, d.Name, m)
			}
		}
		for name := range rec.Metrics {
			if !declared[name] {
				t.Errorf("%s: emitted metric %q is not in BENCHMARK.json", w.name, name)
			}
		}
		for name := range runtimeMetrics(rec) {
			if !declared[name] {
				t.Errorf("%s: emitted metric %q is not in BENCHMARK.json", w.name, name)
			}
		}
	}
}

// TestLayerNames builds and runs every layer driver briefly and checks
// the names they print against BENCHMARK.json, both ways.
func TestLayerNames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every layer driver")
	}
	sp, declared := readTestSpec(t)
	got, notes := runLayers(sp, runConfig{seed: 1, seconds: 0.3, dir: ".", tmp: t.TempDir(), bin: t.TempDir()})
	for driver, why := range notes {
		t.Errorf("%s: %s", driver, why)
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("a driver printed %q, which is not in BENCHMARK.json", name)
		}
	}
	own := runtimeMetrics(&record{passes: []passSample{{cpu: 1}}})
	for _, d := range sp.PerLayer {
		if _, ok := got[d.Name]; !ok && own[d.Name].Value == nil {
			t.Errorf("BENCHMARK.json per-layer metric %q is printed by no driver", d.Name)
		}
	}
}
