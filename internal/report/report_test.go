package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bundler/internal/exp"
	"bundler/internal/stats"
)

func cell(name string, seed int64, params exp.Params, metrics map[string]float64, report string) exp.Result {
	r := exp.Result{Experiment: name, Seed: seed, Params: params, Report: report}
	for _, k := range []string{"completed", "fct-p99", "nan-probe"} {
		if v, ok := metrics[k]; ok {
			r.AddMetric(k, v, "")
		}
	}
	return r
}

func TestResultsIdenticalOK(t *testing.T) {
	a := []exp.Result{
		cell("fct", 1, exp.Params{"rate": "24e6"}, map[string]float64{"completed": 300, "fct-p99": 81.5, "nan-probe": math.NaN()}, "tbl\n"),
		cell("fct", 2, exp.Params{"rate": "48e6"}, map[string]float64{"completed": 300, "fct-p99": 44.0}, "tbl2\n"),
	}
	r := DiffResults(a, a, Options{})
	if !r.OK || r.Compared != 2 || len(r.Findings) != 0 {
		t.Fatalf("identical results (including NaN==NaN) must pass: %+v", r)
	}
}

func TestResultsMetricDriftAndTolerance(t *testing.T) {
	old := []exp.Result{cell("fct", 1, nil, map[string]float64{"fct-p99": 100}, "p99=100\n")}
	drifted := []exp.Result{cell("fct", 1, nil, map[string]float64{"fct-p99": 100.5}, "p99=100.5\n")}

	if r := DiffResults(old, drifted, Options{}); r.OK {
		t.Fatal("exact mode admitted metric drift")
	}
	r := DiffResults(old, drifted, Options{MetricTol: 0.01})
	if !r.OK {
		t.Fatalf("0.5%% drift failed a 1%% tolerance: %+v", r.Findings)
	}
	// Within tolerance, the inevitable rendered-table drift downgrades
	// to info rather than failing.
	for _, f := range r.Findings {
		if f.Severity != "info" {
			t.Fatalf("tolerated drift produced a failure: %+v", f)
		}
	}
	if r := DiffResults(old, drifted, Options{MetricTol: 0.001}); r.OK {
		t.Fatal("0.5% drift passed a 0.1% tolerance")
	}
}

func TestResultsGoldenTableDrift(t *testing.T) {
	old := []exp.Result{cell("fig9", 1, nil, map[string]float64{"completed": 5}, "row A\nrow B\n")}
	changed := []exp.Result{cell("fig9", 1, nil, map[string]float64{"completed": 5}, "row A\nrow B'\n")}
	r := DiffResults(old, changed, Options{})
	if r.OK {
		t.Fatal("golden-table drift passed exact mode")
	}
	f := r.Findings[0]
	if f.Metric != "report" || !strings.Contains(f.Detail, "line 2") {
		t.Fatalf("drift not located: %+v", f)
	}
}

func TestResultsMissingCellAndNaNMismatch(t *testing.T) {
	old := []exp.Result{
		cell("fct", 1, exp.Params{"sched": "sfq", "rtt": "20ms", "rate": "24e6", "mode": "bundler", "load": "0.8", "alg": "copa"},
			map[string]float64{"completed": 1}, ""),
		cell("fct", 1, exp.Params{"rate": "48e6"}, map[string]float64{"nan-probe": math.NaN()}, ""),
	}
	missing := []exp.Result{old[1]}
	r := DiffResults(old, missing, Options{})
	if r.OK {
		t.Fatal("missing cell passed")
	}
	// The cell is named with its params in sorted order, whatever order
	// the map yields them in.
	if want := "fct seed=1 alg=copa load=0.8 mode=bundler rate=24e6 rtt=20ms sched=sfq"; r.Findings[0].Cell != want {
		t.Errorf("missing cell named %q, want %q", r.Findings[0].Cell, want)
	}
	nanGone := []exp.Result{
		old[0],
		cell("fct", 1, exp.Params{"rate": "48e6"}, map[string]float64{"nan-probe": 3.0}, ""),
	}
	if r := DiffResults(old, nanGone, Options{}); r.OK {
		t.Fatal("NaN -> value mismatch passed")
	}
}

func TestResultsNewError(t *testing.T) {
	old := []exp.Result{cell("fct", 1, nil, map[string]float64{"completed": 1}, "")}
	broke := []exp.Result{{Experiment: "fct", Seed: 1, Err: "boom"}}
	r := DiffResults(old, broke, Options{})
	if r.OK || !strings.Contains(r.Findings[0].Detail, "boom") {
		t.Fatalf("newly-erroring cell must fail: %+v", r)
	}
}

func TestResultsSummaryDrift(t *testing.T) {
	mk := func(p99 float64) []exp.Result {
		r := exp.Result{Experiment: "fct", Seed: 1,
			Summaries: map[string]stats.Summary{"slowdown": {N: 10, Mean: 1, P50: 1, P99: p99}}}
		return []exp.Result{r}
	}
	if r := DiffResults(mk(4.0), mk(4.2), Options{}); r.OK {
		t.Fatal("summary drift passed exact mode")
	}
	if r := DiffResults(mk(4.0), mk(4.2), Options{MetricTol: 0.1}); !r.OK {
		t.Fatalf("5%% summary drift failed a 10%% tolerance: %+v", r.Findings)
	}
}

// TestCellIDNoDelimiterCollision mirrors the runstore key guarantee: a
// param value containing the ID's own delimiters must not make two
// distinct cells compare as one.
func TestCellIDNoDelimiterCollision(t *testing.T) {
	smuggled := exp.Result{Experiment: "fct", Seed: 1, Params: exp.Params{"a": "1 b=2"}}
	plain := exp.Result{Experiment: "fct", Seed: 1, Params: exp.Params{"a": "1", "b": "2"}}
	if cellID(smuggled) == cellID(plain) {
		t.Fatalf("distinct cells collided on %q", cellID(plain))
	}
	// Matching still works across files for the quoted form.
	r := DiffResults([]exp.Result{smuggled}, []exp.Result{smuggled}, Options{})
	if !r.OK || r.Compared != 1 {
		t.Fatalf("quoted cell failed to match itself: %+v", r)
	}
}

// TestDiffFilesRejectsNonResults: a JSON object (a benchmark file) is
// refused with a pointer to bench/run.sh; garbage and empty input are
// refused too. An array pair is diffed.
func TestDiffFilesRejectsNonResults(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ok := write("ok.json", "\n[ ]")
	if r, err := DiffFiles(ok, ok, Options{}); err != nil || !r.OK {
		t.Fatalf("empty results arrays must diff clean: %v %+v", err, r)
	}
	_, err := DiffFiles(write("obj.json", "  {\"note\":1}"), ok, Options{})
	if err == nil || !strings.Contains(err.Error(), "bash bench/run.sh") {
		t.Fatalf("JSON object not redirected to the benchmark: %v", err)
	}
	for name, body := range map[string]string{"garbage.json": "xyz", "empty.json": "  "} {
		if _, err := DiffFiles(ok, write(name, body), Options{}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestWriters smoke-checks both renderers are well-formed.
func TestWriters(t *testing.T) {
	old := []exp.Result{cell("fct", 1, nil, map[string]float64{"fct-p99": 100}, "")}
	r := DiffResults(old, []exp.Result{cell("fct", 1, nil, map[string]float64{"fct-p99": 150}, "")}, Options{})
	var text, js bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "RESULT: FAIL") {
		t.Fatalf("text verdict missing:\n%s", text.String())
	}
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"ok": false`) {
		t.Fatalf("JSON verdict missing:\n%s", js.String())
	}
}
