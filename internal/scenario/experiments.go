package scenario

import (
	"fmt"
	"io"
	"strings"

	"bundler/internal/exp"
)

// This file fixes the canonical experiment ordering in one place: the
// registry preserves registration order, and both CLIs derive their
// experiment lists, help text, and "all"-mode sequence from it. The
// adapters themselves live next to the Run* entry points they wrap
// (fct.go, timeline.go, ...). Registering here — rather than in per-file
// init functions — keeps the ordering explicit instead of depending on
// Go's file-name init sequence.
func init() {
	exp.Register(fig2Exp{})
	exp.Register(fig56Exp{})
	exp.RegisterAlias("fig5", "fig56")
	exp.RegisterAlias("fig6", "fig56")
	exp.Register(fig7Exp{})
	exp.Register(fig9Exp{})
	exp.Register(fig10Exp{})
	exp.Register(fig11Exp{})
	exp.Register(fig12Exp{})
	exp.Register(fig13Exp{})
	exp.Register(fig14Exp{})
	exp.Register(fig15Exp{})
	exp.Register(fig16Exp{})
	exp.Register(sec72Exp{})
	exp.Register(sec74Exp{})
	exp.Register(sec76Exp{})
	exp.Register(policiesExp{})
	exp.Register(hierExp{})
	exp.Register(meshExp{})
	exp.RegisterHidden(fctExp{})
	exp.RegisterHidden(ablationsExp{})
}

// ReportHeader writes the banner every experiment report opens with.
func ReportHeader(w io.Writer, s string) {
	fmt.Fprintf(w, "\n=== %s ===\n", s)
}

// WriteFCTRows renders the shared slowdown table of the FCT-comparison
// figures (9, 14, 15) and of internal/topo's "fct"-style config reports.
func WriteFCTRows(w io.Writer, rows []Fig9Result) {
	fmt.Fprintf(w, "%-22s %8s %8s | median slowdown by size: %-10s %-12s %-10s\n",
		"", "p50", "p99", "≤10KB", "10KB-1MB", ">1MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8.2f %8.2f | %26.2f %-12.2f %-10.2f\n",
			r.Label, r.Median, r.P99, r.ByClass[0], r.ByClass[1], r.ByClass[2])
	}
}

// AddFCTRowMetrics records the headline numbers of an FCT-comparison
// table as Result metrics.
func AddFCTRowMetrics(res *exp.Result, rows []Fig9Result) {
	for _, r := range rows {
		label := strings.ReplaceAll(r.Label, " ", "_")
		res.AddMetric(label+"/median-slowdown", r.Median, "")
		res.AddMetric(label+"/p99-slowdown", r.P99, "")
	}
}

// requestsParam is the shared declaration for experiments scaled by the
// CLI-level -requests knob.
func requestsParam(def string) exp.Param {
	return exp.Param{Name: "requests", Default: def,
		Help: "requests per FCT experiment (paper: 1,000,000)"}
}

// artifactsParam is the shared declaration for experiments that can
// render CSV trace artifacts; the CLI sets it when -dump is given so
// runs without a dump directory skip the serialization entirely.
func artifactsParam() exp.Param {
	return exp.Param{Name: "artifacts", Default: "false",
		Help: "render CSV trace artifacts (set by bundler-bench -dump)"}
}
