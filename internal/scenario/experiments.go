package scenario

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bundler/internal/exp"
	"bundler/internal/sim"
)

// experiments is every figure as a row: name, description, declared
// params and the body that answers it — the bodies live next to the Run*
// entry points they call (fct.go, timeline.go, ...). The registry
// preserves this order, and both CLIs derive their experiment lists,
// help text, and "all"-mode sequence from it.
var experiments = []exp.Def{
	{Name: "fig2", Run: fig2,
		Desc:   "Figure 2: queue shifting — delay moves from the bottleneck to the sendbox",
		Params: []exp.Param{{Name: "dur", Default: "30s", Help: "run duration (virtual time)"}, artifactsParam}},
	// The paper plots the §4.5 microbenchmark as Figures 5 and 6.
	{Name: "fig56", Aliases: []string{"fig5", "fig6"}, Run: fig56,
		Desc:   "Figures 5+6: RTT and receive-rate estimate accuracy vs bottleneck ground truth",
		Params: []exp.Param{{Name: "dur", Default: "20s", Help: "virtual time per (delay, rate) config"}}},
	{Name: "fig7", Run: fig7,
		Desc:   "Figure 7: imbalanced multipath detection via out-of-order congestion ACKs",
		Params: []exp.Param{{Name: "dur", Default: "20s", Help: "run duration (virtual time)"}}},
	{Name: "fig9", Meta: map[string]string{"paper": "§7.1", "figure": "9"},
		Run:    fctTable("Figure 9: FCT slowdowns ($requests requests; paper: 1M, medians 1.76 → 1.26)", RunFig9),
		Desc:   "Figure 9: FCT slowdowns — status quo vs Bundler (SFQ/FIFO) vs in-network FQ",
		Params: requestsOnly},
	{Name: "fig10", Run: fig10,
		Desc:   "Figure 10: reaction to buffer-filling and web-like cross traffic over time",
		Params: []exp.Param{artifactsParam}},
	{Name: "fig11", Run: fig11,
		Desc:   "Figure 11: short-flow cross traffic sweep against a fixed 48 Mbit/s bundle",
		Params: requestsOnly},
	{Name: "fig12", Run: fig12,
		Desc: "Figure 12: bundle throughput against persistent elastic (Cubic) cross flows"},
	{Name: "fig13", Run: fig13,
		Desc:   "Figure 13: two bundles sharing the bottleneck at 1:1 and 2:1 load splits",
		Params: requestsOnly},
	{Name: "fig14",
		Run:    fctTable("Figure 14: inner-loop congestion control comparison", RunFig14),
		Desc:   "Figure 14: inner-loop congestion control comparison (Copa vs BasicDelay vs BBR)",
		Params: requestsOnly},
	{Name: "fig15",
		Run:    fctTable("Figure 15: idealized TCP proxy (fixed 450-packet endhost windows)", RunFig15),
		Desc:   "Figure 15: idealized TCP proxy (fixed endhost windows) vs normal Bundler",
		Params: requestsOnly},
	{Name: "fig16", Run: fig16,
		Desc:   "Figure 16: emulated wide-area paths — probe RTTs and bulk throughput",
		Params: []exp.Param{{Name: "dur", Default: "15s", Help: "virtual time per path and configuration"}}},
	{Name: "sec72", Run: sec72,
		Desc: "§7.2: other sendbox policies — FQ-CoDel probe RTTs and strict priority",
		Params: []exp.Param{requestsParam,
			{Name: "dur", Default: "20s", Help: "virtual time for the FQ-CoDel probe run"}}},
	{Name: "sec74", Run: sec74,
		Desc:   "§7.4: Bundler's benefit with Cubic, Reno, and BBR endhosts",
		Params: requestsOnly},
	{Name: "sec76", Run: sec76,
		Desc:   "§7.6: multipath detection across bandwidths, RTTs, and path counts",
		Params: []exp.Param{{Name: "dur", Default: "10s", Help: "virtual time per configuration"}}},
	{Name: "policies", Run: policies,
		Desc:   "extension: every sendbox scheduler/AQM under the Fig 9 workload",
		Params: requestsOnly},
	// The seed CLI never exposed §9; the registry makes it runnable for free.
	{Name: "hier", Run: hier,
		Desc:   "§9: hierarchical bundles — two department pairs nested in an institute pair",
		Params: []exp.Param{{Name: "dur", Default: "30s", Help: "run duration (virtual time)"}}},
	// The scale-out scenario family (2..N sites), sweepable over site
	// count, mode and load.
	{Name: "mesh", Meta: map[string]string{"paper": "§9", "figure": "mesh scale-out (extension)"}, Run: mesh,
		Desc: "N-site mesh (§9 scale-out): per-pair bundles behind shared access bottlenecks, status quo vs Bundler",
		Params: []exp.Param{
			{Name: "sites", Default: "4", Help: "site count N (N·(N-1) ordered pairs, one bundle each)"},
			{Name: "mode", Default: "hub", Help: `"hub" (shared core link) or "pairwise" (access links only)`},
			{Name: "requests", Default: "300", Help: "web requests per ordered site pair"},
			{Name: "rate", Default: "96e6", Help: "per-site access link rate, bits/s"},
			{Name: "load", Default: "0", Help: "per-pair offered load, bits/s (0 = 70% of access rate split across destinations)"},
			{Name: "perturb", Default: "2s", Help: "sendbox SFQ re-key period (0s disables)"},
			{Name: "jitter", Default: "0s", Help: "in-path delay variation bound after each access link"},
			{Name: "jitterordered", Default: "true", Help: "order-preserving jitter (false fakes multipath reordering)"},
			{Name: "users", Default: "0", Help: "emulated background users per site, modeled as a fluid AIMD aggregate on each access link (0 disables; >0 also switches stats to sketch mode)"},
			{Name: "sketch", Default: "auto", Help: `bounded quantile sketches for FCT stats: "auto" (on when users > 0), "true", or "false"`},
		}},
	// The single-point FCT run: the unit of work the sweep engine fans
	// out, and one interactive run as bundler-bench -experiment fct.
	// Hidden — it is looked up or swept, not part of "all". Its Meta
	// tells run-store manifests which part of the paper a swept cell
	// reproduces.
	{Name: "fct", Hidden: true, Meta: map[string]string{"paper": "§7.1", "figure": "9 (single point)"}, Run: fct,
		Desc: "single-point FCT run (the §7.1 setup): rate × RTT × load × scheduler × CC",
		Params: []exp.Param{
			{Name: "mode", Default: "bundler", Help: `"statusquo", "bundler", or "innetwork"`},
			{Name: "alg", Default: "copa", Help: `inner-loop algorithm: "copa", "basicdelay", "bbr"`},
			{Name: "sched", Default: "sfq", Help: `sendbox scheduler: "sfq", "fifo", "fqcodel", "prio:<port>", "sp:<p1>/<p2>", "wfq:<p1>=<w1>/<p2>=<w2>", ...`},
			{Name: "endhost", Default: "cubic", Help: `endhost congestion control: "cubic", "reno", "bbr"`},
			{Name: "rate", Default: "96e6", Help: "bottleneck rate, bits/s"},
			{Name: "rtt", Default: "50ms", Help: "path round-trip propagation delay"},
			{Name: "load", Default: "84e6", Help: "offered load, bits/s"},
			{Name: "loadfrac", Default: "", Help: "offered load as a fraction of rate (overrides load)"},
			{Name: "requests", Default: "10000", Help: "number of requests to complete"},
			{Name: "tunnel", Default: "false", Help: "encapsulation-based epoch marking (§4.5 tunnel mode)"},
		}},
	// No paper figure plots the ablations, so they are hidden too.
	{Name: "ablations", Hidden: true, Run: ablations,
		Desc:   "ablations of the design's called-out choices: epoch rounding, measurement window, PI gains, SFQ buckets, tunnel mode",
		Params: requestsOnly},
}

// Registering the table here — rather than in per-file init functions —
// keeps the ordering explicit instead of depending on Go's file-name
// init sequence.
func init() {
	for _, d := range experiments {
		exp.Register(exp.New(d))
	}
}

// requestsParam is the shared declaration for experiments scaled by the
// CLI-level -requests knob; requestsOnly is the param list of the many
// whose only knob it is.
var (
	requestsParam = exp.Param{Name: "requests", Default: "15000",
		Help: "requests per FCT experiment (paper: 1,000,000)"}
	requestsOnly = []exp.Param{requestsParam}
)

// artifactsParam is the shared declaration for experiments that can
// render CSV trace artifacts; the CLI sets it when -dump is given so
// runs without a dump directory skip the serialization entirely.
var artifactsParam = exp.Param{Name: "artifacts", Default: "false",
	Help: "render CSV trace artifacts (set by bundler-bench -dump)"}

// simDuration reads a duration param ("50ms") as virtual time. Through
// float seconds, which truncates: sim.Time(d) is a different number for
// some inputs, and every committed output was produced this way.
func simDuration(r *exp.Run, name string) sim.Time {
	return sim.FromSeconds(r.Duration(name).Seconds())
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

// fctTable is the body Figures 9, 14 and 15 share: run the figure's
// variants and report the shared slowdown table under header, in which
// "$requests" stands for the request count.
func fctTable(header string, run func(seed int64, requests int) []Fig9Result) func(*exp.Run) error {
	return func(r *exp.Run) error {
		requests := r.Int("requests")
		rows := run(r.Seed, requests)
		ReportHeader(r, strings.ReplaceAll(header, "$requests", strconv.Itoa(requests)))
		WriteFCTRows(r, rows)
		AddFCTRowMetrics(&r.Result, rows)
		return nil
	}
}
