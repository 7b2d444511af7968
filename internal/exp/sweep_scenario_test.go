package exp_test

import (
	"strings"
	"testing"

	"bundler/internal/exp"
	_ "bundler/internal/scenario" // registers the paper's experiments
)

// TestScenarioRegistry checks the paper experiments self-registered in
// canonical figure order, with the fig5/fig6 aliases resolving to the
// shared accuracy run and the building-block fct experiment hidden but
// reachable.
func TestScenarioRegistry(t *testing.T) {
	names := exp.Names()
	wantPrefix := []string{"fig2", "fig56", "fig7", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "sec72", "sec74", "sec76", "policies", "hier"}
	if len(names) < len(wantPrefix) {
		t.Fatalf("Names() = %v, want at least %d experiments", names, len(wantPrefix))
	}
	for i, want := range wantPrefix {
		if names[i] != want {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, names[i], want, names)
		}
	}
	for _, alias := range []string{"fig5", "fig6"} {
		e, ok := exp.Lookup(alias)
		if !ok || e.Name() != "fig56" {
			t.Errorf("Lookup(%s) = %v, %v; want fig56", alias, e, ok)
		}
	}
	if e, ok := exp.Lookup("fct"); !ok || e.Name() != "fct" {
		t.Error("hidden fct experiment not reachable by Lookup")
	}
	for _, n := range names {
		if n == "fct" {
			t.Error("fct should be hidden from Names()")
		}
	}
}

// TestSweepDeterminism is the harness's core guarantee: a fixed-seed grid
// of real simulation runs produces byte-identical JSON at -parallel 1 and
// -parallel 8, because every point owns a private sim.Engine and results
// are ordered by grid index, not completion.
func TestSweepDeterminism(t *testing.T) {
	fct, ok := exp.Lookup("fct")
	if !ok {
		t.Fatal("fct experiment not registered")
	}
	g, err := exp.ParseGrid("sched=sfq,fifo;rtt=20ms,50ms;requests=250;seed=1,2")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 8 {
		t.Fatalf("grid size = %d, want 8", g.Size())
	}
	run := func(parallel int) string {
		results, _, err := exp.SweepOpts(fct, g, exp.Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var w strings.Builder
		if err := exp.WriteJSON(&w, results); err != nil {
			t.Fatal(err)
		}
		return w.String()
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("parallel 8 sweep differs from parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	// And the runs did real work: every point completed its requests.
	var results []exp.Result
	results, _, _ = exp.SweepOpts(fct, g, exp.Options{Parallel: 8})
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("point %v failed: %s", r.Params, r.Err)
		}
		if r.Metric("completed") < 250 {
			t.Errorf("point %v completed %v of 250 requests", r.Params, r.Metric("completed"))
		}
	}
}

// TestExperimentReportsRender spot-checks that a registered experiment's
// Run produces a report and metrics through the interface (the CLIs rely
// on nothing else).
func TestExperimentReportsRender(t *testing.T) {
	e, ok := exp.Lookup("fig9")
	if !ok {
		t.Fatal("fig9 not registered")
	}
	res, err := e.Run(1, exp.Params{"requests": "400"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Report, "\n=== Figure 9") {
		t.Errorf("report header missing: %q", res.Report[:min(60, len(res.Report))])
	}
	if len(res.Metrics) == 0 {
		t.Error("fig9 produced no metrics")
	}
	if res.Metric("Status_Quo/median-slowdown") != res.Metric("Status_Quo/median-slowdown") {
		t.Error("Status Quo median metric is NaN")
	}
}
