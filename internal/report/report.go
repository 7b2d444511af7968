// Package report is the regression-diff engine behind cmd/bundler-report:
// it compares two sweep result files (or a run against a committed
// baseline) cell by cell with metric tolerances and golden-table drift
// detection. CI's pilot-smoke job turns its verdict into a hard build
// gate; the same engine renders both human text and machine JSON.
// Performance is not compared here: that is bench/ (`bash bench/run.sh`).
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"bundler/internal/exp"
)

// Options are the comparison thresholds.
type Options struct {
	// MetricTol is the relative tolerance for results-mode metric and
	// summary comparisons (0 = exact). With a nonzero tolerance,
	// report-text drift downgrades from failure to information: the
	// rendered tables print the very values the tolerance admits.
	MetricTol float64
}

// Finding is one comparison outcome worth reporting.
type Finding struct {
	// Severity is "fail" (gates the build) or "info".
	Severity string `json:"severity"`
	// Cell names the compared unit: "experiment seed=N k=v ...".
	Cell string `json:"cell"`
	// Metric is the compared quantity ("fct-p99", "report").
	Metric string `json:"metric,omitempty"`
	// Old and New are the compared values (absent for text drift).
	Old *float64 `json:"old,omitempty"`
	New *float64 `json:"new,omitempty"`
	// DeltaPct is the percentage change new vs old when defined.
	DeltaPct *float64 `json:"delta_pct,omitempty"`
	// Detail is the human explanation.
	Detail string `json:"detail"`
}

// Report is a full diff outcome. OK is false iff any finding failed.
type Report struct {
	// Kind is always "results"; it stays in the machine report so its
	// schema is the one existing consumers parse.
	Kind     string    `json:"kind"`
	Old      string    `json:"old"`
	New      string    `json:"new"`
	OK       bool      `json:"ok"`
	Compared int       `json:"compared"`
	Failures int       `json:"failures"`
	Findings []Finding `json:"findings"`
}

func (r *Report) add(f Finding) {
	r.Findings = append(r.Findings, f)
	if f.Severity == "fail" {
		r.Failures++
	}
}

func ptr(v float64) *float64 { return &v }

func pct(old, new float64) *float64 {
	if old == 0 {
		return nil
	}
	return ptr((new - old) / math.Abs(old) * 100)
}

// DiffFiles loads two results files ([]exp.Result JSON) and diffs them.
// A JSON object — what the benchmark writes — is turned away with a
// pointer to where benchmarks are compared, not an unmarshal error.
func DiffFiles(oldPath, newPath string, opt Options) (*Report, error) {
	load := func(path string) ([]exp.Result, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		if c := bytes.TrimLeft(data, " \t\r\n"); len(c) > 0 && c[0] == '{' {
			return nil, fmt.Errorf("report: %s is a JSON object, not a results array; benchmarks are measured and compared by `bash bench/run.sh` (see bench/README.md)", path)
		}
		var res []exp.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("report: parse %s: %w", path, err)
		}
		return res, nil
	}
	old, err := load(oldPath)
	if err != nil {
		return nil, err
	}
	new, err := load(newPath)
	if err != nil {
		return nil, err
	}
	r := DiffResults(old, new, opt)
	r.Old, r.New = oldPath, newPath
	return r, nil
}

// cellID names a results cell: experiment, seed, and sorted params.
// Values containing the serialization's own delimiters are quoted, so
// two distinct cells can never collide on one ID (the same guarantee
// runstore.Key.Hash makes for store keys).
func cellID(res exp.Result) string {
	quote := func(s string) string {
		if strings.ContainsAny(s, " =\"\n\t") {
			return strconv.Quote(s)
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d", quote(res.Experiment), res.Seed)
	keys := make([]string, 0, len(res.Params))
	for k := range res.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", quote(k), quote(res.Params[k]))
	}
	return b.String()
}

// DiffResults compares two result sets cell by cell (matched on
// experiment + seed + params). Metric and summary drift beyond
// MetricTol fails, as do cells or metrics missing from new, and cells
// that now error. Report-text drift ("golden-table drift") fails in
// exact mode (MetricTol == 0) and is informational otherwise — with a
// tolerance, the table prints the very values the tolerance admits.
func DiffResults(old, new []exp.Result, opt Options) *Report {
	r := &Report{Kind: "results", Findings: []Finding{}}
	newByID := map[string]exp.Result{}
	newOrder := make([]string, 0, len(new))
	for _, res := range new {
		id := cellID(res)
		newByID[id] = res
		newOrder = append(newOrder, id)
	}
	seen := map[string]bool{}
	for _, o := range old {
		id := cellID(o)
		seen[id] = true
		n, ok := newByID[id]
		if !ok {
			r.add(Finding{Severity: "fail", Cell: id, Detail: "cell missing from new run (lost coverage)"})
			continue
		}
		r.Compared++
		r.diffCell(id, o, n, opt)
	}
	for _, id := range newOrder {
		if !seen[id] {
			r.add(Finding{Severity: "info", Cell: id, Detail: "new cell (no baseline yet)"})
		}
	}
	r.OK = r.Failures == 0
	return r
}

func (r *Report) diffCell(id string, o, n exp.Result, opt Options) {
	if o.Err == "" && n.Err != "" {
		r.add(Finding{Severity: "fail", Cell: id, Detail: "cell now fails: " + n.Err})
		return
	}
	if o.Err != "" {
		if n.Err != o.Err {
			r.add(Finding{Severity: "info", Cell: id,
				Detail: fmt.Sprintf("error changed: %q -> %q", o.Err, n.Err)})
		}
		return
	}
	// Metrics by name, order-insensitively: insertion order is part of
	// the emitted bytes but not of the semantics.
	nVals := map[string]float64{}
	for _, m := range n.Metrics {
		nVals[m.Name] = m.Value
	}
	for _, m := range o.Metrics {
		nv, ok := nVals[m.Name]
		if !ok {
			r.add(Finding{Severity: "fail", Cell: id, Metric: m.Name,
				Detail: "metric missing from new run"})
			continue
		}
		r.diffValue(id, m.Name, m.Value, nv, opt.MetricTol)
	}
	oNames := map[string]bool{}
	for _, m := range o.Metrics {
		oNames[m.Name] = true
	}
	for _, m := range n.Metrics {
		if !oNames[m.Name] {
			r.add(Finding{Severity: "info", Cell: id, Metric: m.Name, Detail: "new metric (no baseline yet)"})
		}
	}
	// Summaries: N exactly, quantile fields within tolerance.
	for name, os := range o.Summaries {
		ns, ok := n.Summaries[name]
		if !ok {
			r.add(Finding{Severity: "fail", Cell: id, Metric: name, Detail: "summary missing from new run"})
			continue
		}
		if os.N != ns.N {
			r.add(Finding{Severity: "fail", Cell: id, Metric: name + ".n",
				Old: ptr(float64(os.N)), New: ptr(float64(ns.N)),
				Detail: fmt.Sprintf("summary count drifted %d -> %d", os.N, ns.N)})
		}
		for _, q := range [...]struct {
			suffix   string
			old, new float64
		}{
			{"mean", os.Mean, ns.Mean}, {"p10", os.P10, ns.P10}, {"p25", os.P25, ns.P25},
			{"p50", os.P50, ns.P50}, {"p75", os.P75, ns.P75}, {"p90", os.P90, ns.P90},
			{"p99", os.P99, ns.P99}, {"min", os.Min, ns.Min}, {"max", os.Max, ns.Max},
		} {
			r.diffValue(id, name+"."+q.suffix, q.old, q.new, opt.MetricTol)
		}
	}
	if o.Report != n.Report {
		sev := "fail"
		if opt.MetricTol > 0 {
			sev = "info"
		}
		r.add(Finding{Severity: sev, Cell: id, Metric: "report",
			Detail: "golden-table drift: " + firstDiffLine(o.Report, n.Report)})
	}
}

// diffValue compares one scalar with a relative tolerance. NaN equals
// NaN (an empty sample is a stable outcome); NaN vs a value fails.
func (r *Report) diffValue(id, metric string, old, new, tol float64) {
	oNaN, nNaN := math.IsNaN(old), math.IsNaN(new)
	if oNaN && nNaN {
		return
	}
	if oNaN != nNaN {
		r.add(Finding{Severity: "fail", Cell: id, Metric: metric,
			Detail: fmt.Sprintf("value drifted %v -> %v (NaN mismatch)", old, new)})
		return
	}
	if old == new {
		return
	}
	denom := math.Abs(old)
	if denom == 0 {
		denom = 1
	}
	rel := math.Abs(new-old) / denom
	if rel > tol {
		r.add(Finding{Severity: "fail", Cell: id, Metric: metric,
			Old: ptr(old), New: ptr(new), DeltaPct: pct(old, new),
			Detail: fmt.Sprintf("value drifted %g -> %g (rel %.2e, tolerance %.2e)", old, new, rel, tol)})
	}
}

// firstDiffLine locates the first line where two reports diverge.
func firstDiffLine(old, new string) string {
	ol := strings.Split(old, "\n")
	nl := strings.Split(new, "\n")
	for i := 0; i < len(ol) || i < len(nl); i++ {
		var o, n string
		if i < len(ol) {
			o = ol[i]
		}
		if i < len(nl) {
			n = nl[i]
		}
		if o != n {
			return fmt.Sprintf("line %d: %q -> %q", i+1, o, n)
		}
	}
	return "reports differ"
}

// WriteText renders the human report.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "bundler-report: %s diff  old=%s  new=%s\n", r.Kind, r.Old, r.New); err != nil {
		return err
	}
	for _, f := range r.Findings {
		tag := "info"
		if f.Severity == "fail" {
			tag = "FAIL"
		}
		// Name the metric next to the cell — a cell carries many metrics,
		// and "value drifted" alone doesn't say which one moved.
		name := f.Cell
		if f.Metric != "" {
			name += " " + f.Metric
		}
		if _, err := fmt.Fprintf(w, "  %s  %-40s %s\n", tag, name, f.Detail); err != nil {
			return err
		}
	}
	verdict := "OK"
	if !r.OK {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "RESULT: %s (%d compared, %d failures, %d findings)\n",
		verdict, r.Compared, r.Failures, len(r.Findings))
	return err
}

// WriteJSON renders the machine report (stable field order, indented).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(r)
}
