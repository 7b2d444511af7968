package topo

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bundler/internal/scenario"
	"bundler/internal/workload"
)

// webLineFormat is the format appendWebLine reproduces.
const webLineFormat = "  web  %-12s completed %d/%d, slowdown p50=%.2f p90=%.2f p99=%.2f\n"

// checkWebLine fails t unless appendWebLine gives fmt's text for the
// arguments, appended after existing bytes.
func checkWebLine(t *testing.T, name string, completed, requests int, p50, p90, p99 float64) {
	t.Helper()
	want := fmt.Sprintf(webLineFormat, name, completed, requests, p50, p90, p99)
	if got := string(appendWebLine([]byte("x"), name, completed, requests, p50, p90, p99)); got != "x"+want {
		t.Errorf("appendWebLine(%q, %d, %d, %v, %v, %v) = %q, want %q",
			name, completed, requests, p50, p90, p99, got[1:], want)
	}
}

// TestWebLineMatchesFmt pins the report's web line to the fmt format it
// replaced: padding counts runes, and non-finite, negative-zero and
// huge values print as fmt prints them.
func TestWebLineMatchesFmt(t *testing.T) {
	names := []string{"", "twelve-runes", "thirteen-rune", "é", "東京大阪名古屋", "site3.web-class", "\xff\xfe"}
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.005, 1.125, 1e300, -2.5}
	counts := [][2]int{{0, 0}, {7, 300}, {1<<40 + 3, math.MaxInt64}, {-1, math.MinInt64}}
	for _, name := range names {
		for _, c := range counts {
			for i, v := range values {
				checkWebLine(t, name, c[0], c[1], v, values[(i+1)%len(values)], values[(i+2)%len(values)])
			}
		}
	}
}

// TestSummaryResultMetrics: a run with no metrics leaves Metrics nil,
// and web workloads' metric names, all cut from one buffer, read as
// separately built names would.
func TestSummaryResultMetrics(t *testing.T) {
	cfg := &Config{Name: "cfg"}
	empty := summaryResult(cfg, 1, nil, "hdr", []outcome{{label: "a run", c: &compiled{}}})
	if empty.Metrics != nil {
		t.Errorf("no workloads: Metrics = %#v, want nil", empty.Metrics)
	}
	if !strings.Contains(empty.Report, "a run (ran 0s virtual):\n") {
		t.Errorf("report lacks the run line:\n%s", empty.Report)
	}

	rec1, rec2 := workload.NewRecorder(96e6, 0), workload.NewRecorder(96e6, 0)
	rec1.Requests, rec2.Requests = 3, 5
	c := &compiled{webs: []webOut{
		{Host: "h1", Rec: rec1},
		{Host: "h2", Class: "gold", Rec: rec2},
	}}
	res := summaryResult(cfg, 1, nil, "hdr", []outcome{{label: "a run", c: c}})
	var got []string
	for _, m := range res.Metrics {
		got = append(got, m.Name)
	}
	want := []string{
		"a_run/web-h1/completed", "a_run/web-h1/median-slowdown", "a_run/web-h1/p99-slowdown",
		"a_run/web-h2.gold/completed", "a_run/web-h2.gold/median-slowdown", "a_run/web-h2.gold/p99-slowdown",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("metric names %q, want %q", got, want)
	}
	if line := fmt.Sprintf(webLineFormat, "h2.gold", 0, 5, math.NaN(), math.NaN(), math.NaN()); !strings.Contains(res.Report, line) {
		t.Errorf("report lacks %q:\n%s", line, res.Report)
	}
}

// TestMeshResultNameAllocs: a mesh's result names, its pairs' "s<i>-s<j>"
// hosts in compileMesh and their three metric names each in
// summaryResult, cost allocations per run, not per pair. It compiles,
// runs and summarises an 8-site and a 16-site mesh (56 and 240 pairs):
// what compileMesh allocates beyond NewMesh, and what summaryResult
// allocates, may differ by at most 4 between the two. Both read 3 and 14
// at either size; with a Sprintf per pair host, a builder per web
// workload's names and a report grown by doubling, they read 64 → 250
// and 77 → 267. Counts are averaged over 20 runs: the race detector
// drops sync.Pool entries (fmt's printers) at random.
func TestMeshResultNameAllocs(t *testing.T) {
	cost := func(sites int) (names, summary float64) {
		opt := scenario.MeshOptions{Seed: 1, Sites: sites, Requests: 1, Shards: 1}
		var c *compiled
		mesh := testing.AllocsPerRun(20, func() { scenario.NewMesh(opt) })
		names = testing.AllocsPerRun(20, func() { c = compileMesh(opt) }) - mesh
		outs := []outcome{{label: "Status Quo", c: c, stop: c.run(0)}}
		summary = testing.AllocsPerRun(20, func() { summaryResult(&Config{Name: "m"}, 1, nil, "hdr", outs) })
		return names, summary
	}
	names8, summary8 := cost(8)
	names16, summary16 := cost(16)
	t.Logf("compileMesh beyond NewMesh: %.0f → %.0f allocations; summaryResult: %.0f → %.0f", names8, names16, summary8, summary16)
	if names16-names8 > 4 {
		t.Errorf("compileMesh's names cost %.0f allocations at 8 sites and %.0f at 16: they grow with the pair count", names8, names16)
	}
	if summary16-summary8 > 4 {
		t.Errorf("summaryResult costs %.0f allocations at 8 sites and %.0f at 16: it grows with the pair count", summary8, summary16)
	}
}
