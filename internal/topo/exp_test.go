package topo

import (
	"fmt"
	"math"
	"strings"
	"testing"

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
// and a web workload's three metric names, which share one backing
// string, read as three separately built names would.
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
