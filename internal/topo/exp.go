package topo

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"bundler/internal/exp"
	"bundler/internal/report"
	"bundler/internal/scenario"
	"bundler/internal/sim"
	"bundler/internal/stats"
)

// configExp adapts a Config to the exp.Experiment interface, making a
// loaded file indistinguishable from a hand-coded experiment: runnable
// by name, listable, and sweepable over its declared params.
type configExp struct {
	cfg      *Config
	hashOnce sync.Once
	hash     string
}

// Experiment wraps a parsed config as an exp.Experiment.
func Experiment(cfg *Config) exp.Experiment { return &configExp{cfg: cfg} }

func (e *configExp) Name() string { return e.cfg.Name }

func (e *configExp) Desc() string {
	if e.cfg.Desc != "" {
		return e.cfg.Desc
	}
	return "declarative scenario (config-defined)"
}

func (e *configExp) Params() []exp.Param {
	out := make([]exp.Param, len(e.cfg.Params))
	for i, d := range e.cfg.Params {
		out[i] = exp.Param{Name: d.Name, Default: d.Default, Help: d.Help}
	}
	return out
}

func (e *configExp) Run(seed int64, p exp.Params) (exp.Result, error) {
	return runConfig(e.cfg, seed, p, 0)
}

// SourceHash implements exp.SourceHasher: config experiments are keyed
// in the run store by the config's canonical content, not the binary,
// so a rebuild keeps their cache warm while a semantic config edit
// invalidates exactly the cells it changes. An unhashable config (never
// the case for one that validated) falls back to the binary fingerprint
// by returning "".
func (e *configExp) SourceHash() string {
	e.hashOnce.Do(func() {
		h, err := e.cfg.CanonicalHash()
		if err != nil {
			return
		}
		e.hash = "topo:" + h
	})
	return e.hash
}

// Metadata implements exp.Metadater: run-store manifests record which
// declarative file shape produced the cell.
func (e *configExp) Metadata() map[string]string {
	return map[string]string{"kind": "topo-config", "runs": fmt.Sprintf("%d", len(e.cfg.runList()))}
}

// Validate dry-compiles every run of cfg with default parameters,
// surfacing bad qdisc names, dangling link endpoints, unknown hosts, and
// the like without executing anything. A mesh run is checked through
// its options and not built: every ordered site pair runs a web
// workload. The CLIs call it at -config load time so a broken file
// fails fast.
func Validate(cfg *Config) error {
	pv, err := cfg.paramValues(nil)
	if err != nil {
		return err
	}
	style, err := reportStyle(cfg)
	if err != nil {
		return err
	}
	header := cfg.Report.Header
	if header == "" {
		header = defaultHeader(cfg)
	}
	if _, err := expand(header, pv); err != nil {
		// Catch a typoed $ref here, not after every simulation has run.
		return fmt.Errorf("topo: config %s: report header: %w", cfg.Name, err)
	}
	for _, r := range cfg.runList() {
		sc := merged(cfg.Base, r)
		if sc.Mesh != nil {
			if _, err := meshOptions(sc, 0, pv); err != nil {
				return fmt.Errorf("topo: config %s, run %q: %w", cfg.Name, r.Label, err)
			}
			continue
		}
		c, err := compile(sc, 0, pv)
		if err != nil {
			return fmt.Errorf("topo: config %s, run %q: %w", cfg.Name, r.Label, err)
		}
		if style == "fct" && len(c.webs) == 0 {
			return fmt.Errorf("topo: config %s, run %q: fct report style needs a web workload in every run", cfg.Name, r.Label)
		}
	}
	return nil
}

// RegisterFile loads, validates, and registers the config at path as an
// experiment, replacing a same-named built-in (the declarative
// re-expression shadows it). It reports whether a replacement happened.
func RegisterFile(path string) (exp.Experiment, bool, error) {
	cfg, err := Load(path)
	if err != nil {
		return nil, false, err
	}
	if err := Validate(cfg); err != nil {
		return nil, false, fmt.Errorf("%w (in %s)", err, path)
	}
	e := Experiment(cfg)
	replaced, err := exp.RegisterOrReplace(e)
	if err != nil {
		return nil, false, fmt.Errorf("topo: register %s: %w", path, err)
	}
	return e, replaced, nil
}

// outcome is one executed run.
type outcome struct {
	label string
	c     *compiled
	stop  sim.Time
}

func reportStyle(cfg *Config) (string, error) {
	switch cfg.Report.Style {
	case "", "summary":
		return "summary", nil
	case "fct":
		return "fct", nil
	default:
		return "", fmt.Errorf("topo: config %s: unknown report style %q (want summary or fct)", cfg.Name, cfg.Report.Style)
	}
}

// runConfig compiles and executes every run, then renders the report.
func runConfig(cfg *Config, seed int64, p exp.Params, maxHorizon sim.Time) (exp.Result, error) {
	pv, err := cfg.paramValues(p)
	if err != nil {
		return exp.Result{}, err
	}
	style, err := reportStyle(cfg)
	if err != nil {
		return exp.Result{}, err
	}
	var outs []outcome
	for _, r := range cfg.runList() {
		c, cerr := compile(merged(cfg.Base, r), seed, pv)
		if cerr != nil {
			return exp.Result{}, fmt.Errorf("topo: config %s, run %q: %w", cfg.Name, r.Label, cerr)
		}
		if style == "fct" && len(c.webs) == 0 {
			return exp.Result{}, fmt.Errorf("topo: config %s, run %q: fct report style needs a web workload in every run", cfg.Name, r.Label)
		}
		outs = append(outs, outcome{label: r.Label, c: c, stop: c.run(maxHorizon)})
	}

	header := cfg.Report.Header
	if header == "" {
		header = defaultHeader(cfg)
	}
	header, err = expand(header, pv)
	if err != nil {
		return exp.Result{}, fmt.Errorf("topo: config %s: report header: %w", cfg.Name, err)
	}

	if style == "fct" {
		return fctResult(cfg, seed, p, header, outs), nil
	}
	return summaryResult(cfg, seed, p, header, outs), nil
}

func defaultHeader(cfg *Config) string {
	if cfg.Desc != "" {
		return cfg.Desc
	}
	return cfg.Name
}

// fctResult renders the shared FCT-comparison table (the Figures 9/14/15
// format): one row per run from its first web workload — or, for a mesh
// run, from the aggregate over every ordered site pair (one pair alone
// would silently misrepresent the whole mesh as its first pair, unlike
// the registered mesh experiment). Byte-compatible with the hand-coded
// figures — the same header string, rows, and metric names produce the
// same Result JSON.
func fctResult(cfg *Config, seed int64, p exp.Params, header string, outs []outcome) exp.Result {
	var rows []scenario.Fig9Result
	for _, o := range outs {
		rec := o.c.webs[0].Rec
		if o.c.mesh != nil {
			rec = o.c.mesh.Aggregate()
		}
		rows = append(rows, scenario.SummarizeFCT(o.label, rec))
	}
	var w strings.Builder
	scenario.ReportHeader(&w, header)
	scenario.WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: cfg.Name, Seed: seed, Params: p, Report: w.String()}
	scenario.AddFCTRowMetrics(&res, rows)
	// Runs with a classes section carry scheduler meters; append their
	// fairness blocks after the FCT table. Class-less configs (every
	// pre-existing figure) emit nothing here, keeping their reports
	// byte-identical.
	var fw strings.Builder
	for _, o := range outs {
		if len(o.c.meters) == 0 {
			continue
		}
		fmt.Fprintf(&fw, "%s fairness:\n", o.label)
		addFairness(&fw, &res, strings.ReplaceAll(o.label, " ", "_")+"/", o)
	}
	res.Report += fw.String()
	return res
}

// addFairness renders the scheduler-fairness section for one run — one
// block per metered bundle — and registers the matching metrics so
// sweeps and diffs can track fairness per cell. Only runs whose
// scenario declares classes have meters.
func addFairness(w *strings.Builder, res *exp.Result, prefix string, o outcome) {
	for _, m := range o.c.meters {
		stats := m.Meter.Stats()
		shares := make([]report.ClassShare, len(stats))
		for i, st := range stats {
			shares[i] = report.ClassShare{Name: st.Class.Name, Weight: st.Class.Weight, Bytes: st.Bytes}
		}
		f := report.ComputeFairness(shares, m.Meter.Served(), m.Meter.Attempts(), m.Rate, o.stop.Seconds())
		fmt.Fprintf(w, "  fair %-12s sched=%s\n", m.Host, m.Sched)
		f.WriteText(w, "    ")
		base := prefix + "fair-" + m.Host
		res.AddMetric(base+"/jain", f.Jain, "")
		res.AddMetric(base+"/work-conservation", f.WorkConservation, "")
		for _, cs := range f.Classes {
			res.AddMetric(base+"/"+cs.Name+"/share", cs.Share, "")
			res.AddMetric(base+"/"+cs.Name+"/Mbps", cs.Mbps, "Mbps")
			res.AddMetric(base+"/"+cs.Name+"/utilization", cs.Utilization, "")
		}
	}
}

// summaryResult renders per-run, per-workload statistics.
func summaryResult(cfg *Config, seed int64, p exp.Params, header string, outs []outcome) exp.Result {
	var w strings.Builder
	scenario.ReportHeader(&w, header)
	res := exp.Result{Experiment: cfg.Name, Seed: seed, Params: p}
	// A web workload is named for its host, or host.class when it has a
	// class (a host carries one per class, and metric names must not
	// collide). All web metric names are cut from one buffer, and the
	// report is sized up front, so neither grows with the workload count.
	n, size, report := 0, 0, 0
	for _, o := range outs {
		n += 3*len(o.c.webs) + len(o.c.bulks) + 2*len(o.c.pings) + len(o.c.cbrs) + 2*len(o.c.fluids)
		report += len(o.label) + len(" (ran 1000s virtual):\n")
		for _, web := range o.c.webs {
			name := len(web.Host)
			if web.Class != "" {
				name += len(".") + len(web.Class)
			}
			size += 3*(len(o.label)+len("/web-")+name) + len("/completed/median-slowdown/p99-slowdown")
			report += max(12, name) + len("  web   completed 300/300, slowdown p50=10.00 p90=10.00 p99=10.00\n")
		}
	}
	if n > 0 { // no metrics leaves Metrics nil
		res.Metrics = make([]exp.Metric, 0, n)
	}
	var names strings.Builder
	names.Grow(size)
	w.Grow(report)
	var line []byte
	for _, o := range outs {
		fmt.Fprintf(&w, "%s (ran %.0fs virtual):\n", o.label, o.stop.Seconds())
		prefix := strings.ReplaceAll(o.label, " ", "_") + "/"
		for _, web := range o.c.webs {
			var metric [3]string
			for i, sfx := range [3]string{"/completed", "/median-slowdown", "/p99-slowdown"} {
				at := names.Len()
				names.WriteString(prefix)
				names.WriteString("web-")
				names.WriteString(web.Host)
				if web.Class != "" {
					names.WriteByte('.')
					names.WriteString(web.Class)
				}
				names.WriteString(sfx)
				metric[i] = names.String()[at:]
			}
			name := metric[0][len(prefix)+len("web-") : len(metric[0])-len("/completed")]
			s := web.Rec.Slowdowns.Summarize()
			line = appendWebLine(line[:0], name, web.Rec.Completed, web.Rec.Requests, s.P50, s.P90, s.P99)
			w.Write(line)
			res.AddMetric(metric[0], float64(web.Rec.Completed), "requests")
			res.AddMetric(metric[1], s.P50, "")
			res.AddMetric(metric[2], s.P99, "")
		}
		for _, bk := range o.c.bulks {
			var acked int64
			for _, snd := range bk.Senders {
				acked += snd.Acked()
			}
			mbps := float64(acked) * 8 / o.stop.Seconds() / 1e6
			fmt.Fprintf(&w, "  bulk %-12s %d flows, %.1f Mbit/s aggregate\n", bk.Host, len(bk.Senders), mbps)
			res.AddMetric(prefix+"bulk-"+bk.Host+"/Mbps", mbps, "Mbps")
		}
		for _, pg := range o.c.pings {
			var r stats.Sample
			r.Reserve(len(pg.Client.Series.V))
			for _, v := range pg.Client.Series.V {
				r.Add(v)
			}
			fmt.Fprintf(&w, "  ping %-12s rtt p50=%.1fms p90=%.1fms (n=%d)\n",
				pg.Host, r.Quantile(0.5), r.Quantile(0.9), r.N())
			res.AddMetric(prefix+"ping-"+pg.Host+"/p50-ms", r.Quantile(0.5), "ms")
			res.AddMetric(prefix+"ping-"+pg.Host+"/p90-ms", r.Quantile(0.9), "ms")
		}
		for _, cb := range o.c.cbrs {
			mbps := float64(cb.Sink.Count) * float64(cb.PktSize) * 8 / o.stop.Seconds() / 1e6
			fmt.Fprintf(&w, "  cbr  %-12s offered %.1f, delivered %.1f Mbit/s\n", cb.Host, cb.RateBps/1e6, mbps)
			res.AddMetric(prefix+"cbr-"+cb.Host+"/Mbps", mbps, "Mbps")
		}
		for _, fl := range o.c.fluids {
			mbps := fl.Agg.DeliveredBytes() * 8 / o.stop.Seconds() / 1e6
			fmt.Fprintf(&w, "  fluid %-11s %d users, delivered %.1f Mbit/s, lost %.1f MB\n",
				fl.Host, fl.Users, mbps, fl.Agg.LostBytes()/1e6)
			res.AddMetric(prefix+"fluid-"+fl.Host+"/Mbps", mbps, "Mbps")
			res.AddMetric(prefix+"fluid-"+fl.Host+"/lost-bytes", fl.Agg.LostBytes(), "bytes")
		}
		addFairness(&w, &res, prefix, o)
	}
	res.Report = w.String()
	return res
}

// appendWebLine appends a web workload's report line to b; it is
// fmt.Sprintf("  web  %-12s completed %d/%d, slowdown p50=%.2f p90=%.2f
// p99=%.2f\n", ...) without boxing its arguments.
func appendWebLine(b []byte, name string, completed, requests int, p50, p90, p99 float64) []byte {
	b = append(b, "  web  "...)
	b = append(b, name...)
	for pad := 12 - utf8.RuneCountInString(name); pad > 0; pad-- {
		b = append(b, ' ')
	}
	b = append(b, " completed "...)
	b = strconv.AppendInt(b, int64(completed), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(requests), 10)
	b = append(b, ", slowdown p50="...)
	b = strconv.AppendFloat(b, p50, 'f', 2, 64)
	b = append(b, " p90="...)
	b = strconv.AppendFloat(b, p90, 'f', 2, 64)
	b = append(b, " p99="...)
	b = strconv.AppendFloat(b, p99, 'f', 2, 64)
	return append(b, '\n')
}
