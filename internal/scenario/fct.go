package scenario

import (
	"fmt"
	"sort"
	"strings"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

// FCTOptions parameterizes one flow-completion-time run (the §7.1 setup).
type FCTOptions struct {
	Seed       int64
	LinkRate   float64  // default 96 Mbit/s
	RTT        sim.Time // default 50 ms
	Requests   int      // default 5000
	OfferedBps float64  // default 84 Mbit/s
	// Mode is "statusquo", "bundler", or "innetwork" (fair queueing at the
	// emulated bottleneck, the undeployable upper bound).
	Mode string
	// InnerAlg names the sendbox algorithm ("copa" default).
	InnerAlg string
	// Scheduler names the sendbox qdisc (see SchedulerByName).
	Scheduler string
	// EndhostCC names the endhost algorithm ("cubic" default).
	EndhostCC string
	// FixedCwnd pins endhost windows (the §7.5 proxy emulation).
	FixedCwnd int
	// SendboxQueuePackets overrides the sendbox scheduler depth.
	SendboxQueuePackets int
	// TunnelMode switches epoch identification to the §4.5 encapsulation
	// variant.
	TunnelMode bool
	// Horizon bounds the run.
	Horizon sim.Time
}

func (o *FCTOptions) fill() {
	if o.LinkRate == 0 {
		o.LinkRate = 96e6
	}
	if o.RTT == 0 {
		o.RTT = 50 * sim.Millisecond
	}
	if o.Requests == 0 {
		o.Requests = 5000
	}
	if o.OfferedBps == 0 {
		o.OfferedBps = 84e6
	}
	if o.Mode == "" {
		o.Mode = "bundler"
	}
	if o.Horizon == 0 {
		o.Horizon = 10 * sim.Time(o.Requests) * sim.Millisecond // ≈ load-scaled
		if o.Horizon < 120*sim.Second {
			o.Horizon = 120 * sim.Second
		}
	}
}

// RunFCT executes one FCT scenario and returns the workload recorder.
func RunFCT(o FCTOptions) *workload.Recorder {
	o.fill()
	cfg := NetConfig{Seed: o.Seed, LinkRate: o.LinkRate, RTT: o.RTT}
	switch o.Mode {
	case "statusquo", "bundler":
	case "innetwork":
		// Fair queueing at the bottleneck itself: the paper's emulated
		// upper bound (a 171-line mahimahi patch in the original).
		cfg.fill()
		cfg.Bottleneck = qdisc.NewSFQ(1024, cfg.BufBytes/pkt.MTU)
	default:
		panic("scenario: unknown mode " + o.Mode)
	}
	n := NewNet(cfg)

	var site *Site
	if o.Mode == "bundler" {
		bcfg := &bundle.Config{Algorithm: o.InnerAlg, TunnelMode: o.TunnelMode}
		depth := o.SendboxQueuePackets
		if depth == 0 {
			depth = 1000
		}
		bcfg.Scheduler = SchedulerByName(n.Eng, o.Scheduler, depth)
		site = n.AddSite(bcfg)
	} else {
		site = n.AddSite(nil)
	}

	rec := site.RunOpenLoop(Traffic{
		OfferedBps:    o.OfferedBps,
		Requests:      o.Requests,
		CC:            o.EndhostCC,
		FixedCwndSegs: o.FixedCwnd,
	})
	n.RunUntilDone(o.Horizon, func() bool { return rec.Completed >= o.Requests })
	if site.SB != nil {
		site.SB.Stop()
	}
	return rec
}

// Fig9Result is one row of the Figure 9 comparison.
type Fig9Result struct {
	Label   string
	Rec     *workload.Recorder
	Median  float64
	P99     float64
	ByClass [3]float64 // median slowdown per size class
}

// RunFig9 reproduces Figure 9: status quo vs Bundler+SFQ vs In-Network FQ
// vs Bundler+FIFO on the §7.1 web workload.
func RunFig9(seed int64, requests int) []Fig9Result {
	configs := []struct{ label, mode, sched string }{
		{"Status Quo", "statusquo", ""},
		{"Bundler (SFQ)", "bundler", "sfq"},
		{"In-Network FQ", "innetwork", ""},
		{"Bundler (FIFO)", "bundler", "fifo"},
	}
	var out []Fig9Result
	for _, c := range configs {
		rec := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: c.mode, Scheduler: c.sched})
		out = append(out, SummarizeFCT(c.label, rec))
	}
	return out
}

// SummarizeFCT condenses a recorder into one row of the shared
// FCT-comparison table.
func SummarizeFCT(label string, rec *workload.Recorder) Fig9Result {
	r := Fig9Result{Label: label, Rec: rec, Median: rec.Slowdowns.Median(), P99: rec.Slowdowns.Quantile(0.99)}
	for i := range rec.ByClass {
		r.ByClass[i] = rec.ByClass[i].Median()
	}
	return r
}

// RunFig14 reproduces Figure 14: the inner-loop algorithm comparison
// (Copa vs BasicDelay vs BBR) plus the status-quo baseline.
func RunFig14(seed int64, requests int) []Fig9Result {
	var out []Fig9Result
	out = append(out, SummarizeFCT("Status Quo",
		RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "statusquo"})))
	for _, alg := range []string{"copa", "basicdelay", "bbr"} {
		rec := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "bundler", InnerAlg: alg})
		out = append(out, SummarizeFCT("Bundler ("+alg+")", rec))
	}
	return out
}

// RunSec74 reproduces the §7.4 endhost-CC result: Bundler's benefit
// persists when endhosts run Reno or BBR instead of Cubic.
func RunSec74(seed int64, requests int) map[string][2]Fig9Result {
	out := make(map[string][2]Fig9Result)
	for _, cc := range []string{"cubic", "reno", "bbr"} {
		sq := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "statusquo", EndhostCC: cc})
		bd := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "bundler", EndhostCC: cc})
		out[cc] = [2]Fig9Result{SummarizeFCT("Status Quo", sq), SummarizeFCT("Bundler", bd)}
	}
	return out
}

// RunFig15 reproduces Figure 15: the idealized TCP proxy (fixed 450-packet
// endhost windows, deeper sendbox buffer) against normal Bundler.
func RunFig15(seed int64, requests int) []Fig9Result {
	normal := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "bundler"})
	proxy := RunFCT(FCTOptions{
		Seed: seed, Requests: requests, Mode: "bundler",
		FixedCwnd: 450, SendboxQueuePackets: 8192,
	})
	return []Fig9Result{
		SummarizeFCT("Bundler", normal),
		SummarizeFCT("Bundler + Proxy", proxy),
	}
}

// Fig13Result reports one bundle's outcome in the competing-bundles
// experiment.
type Fig13Result struct {
	Label   string
	Medians []float64 // median slowdown per bundle
}

// RunFig13 reproduces Figure 13: two bundles sharing the bottleneck at 1:1
// and 2:1 offered-load splits, against the status-quo baseline at the same
// aggregate 84 Mbit/s.
func RunFig13(seed int64, requests int) []Fig13Result {
	splits := []struct {
		label  string
		shares []float64
	}{
		{"Status Quo (aggregate)", nil},
		{"1:1", []float64{0.5, 0.5}},
		{"2:1", []float64{2.0 / 3, 1.0 / 3}},
	}
	var out []Fig13Result
	for _, sp := range splits {
		if sp.shares == nil {
			rec := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "statusquo"})
			out = append(out, Fig13Result{Label: sp.label, Medians: []float64{rec.Slowdowns.Median()}})
			continue
		}
		n := NewNet(NetConfig{Seed: seed})
		var recs []*workload.Recorder
		for _, share := range sp.shares {
			site := n.AddSite(DefaultBundleConfig())
			recs = append(recs, site.RunOpenLoop(Traffic{
				OfferedBps: 84e6 * share,
				Requests:   int(float64(requests) * share),
			}))
		}
		n.RunUntilDone(600*sim.Second, func() bool {
			for i, r := range recs {
				if r.Completed < int(float64(requests)*sp.shares[i]) {
					return false
				}
			}
			return true
		})
		res := Fig13Result{Label: sp.label}
		for _, r := range recs {
			res.Medians = append(res.Medians, r.Slowdowns.Median())
		}
		out = append(out, res)
	}
	return out
}

// Fig11Point is one x-position of the short-flow cross-traffic sweep.
type Fig11Point struct {
	CrossBps float64
	Median   map[string]float64 // config label -> median slowdown of bundle flows
}

// RunFig11 reproduces Figure 11: the bundle offers a fixed 48 Mbit/s while
// un-bundled short-flow cross traffic sweeps from 6 to 42 Mbit/s.
func RunFig11(seed int64, requestsPerPoint int) []Fig11Point {
	var out []Fig11Point
	for cross := 6e6; cross <= 42e6; cross += 12e6 {
		point := Fig11Point{CrossBps: cross, Median: map[string]float64{}}
		for _, mode := range []struct{ label, m, alg string }{
			{"statusquo", "statusquo", ""},
			{"bundler-copa", "bundler", "copa"},
			{"bundler-nimbus", "bundler", "basicdelay"},
		} {
			n := NewNet(NetConfig{Seed: seed})
			var site *Site
			if mode.m == "bundler" {
				site = n.AddSite(&bundle.Config{Algorithm: mode.alg})
			} else {
				site = n.AddSite(nil)
			}
			crossSite := n.AddSite(nil)
			rec := site.RunOpenLoop(Traffic{OfferedBps: 48e6, Requests: requestsPerPoint,
				Warmup: 5 * sim.Second})
			// Scale the cross generator's request count to its offered
			// load so both workloads span the same virtual time (the
			// point measures competition, not a tail of unopposed cross
			// traffic).
			crossReqs := int(float64(requestsPerPoint) * cross / 48e6)
			if crossReqs < 100 {
				crossReqs = 100
			}
			crossRec := crossSite.RunOpenLoop(Traffic{OfferedBps: cross, Requests: crossReqs})
			n.RunUntilDone(600*sim.Second, func() bool {
				return rec.Completed >= requestsPerPoint && crossRec.Completed >= crossReqs
			})
			if site.SB != nil {
				site.SB.Stop()
			}
			point.Median[mode.label] = rec.Slowdowns.Median()
		}
		out = append(out, point)
	}
	return out
}

// Fig12Point reports bundle throughput against N persistent elastic cross
// flows.
type Fig12Point struct {
	CrossFlows int
	Throughput map[string]float64 // config label -> bundle Mbit/s
}

// RunFig12 reproduces Figure 12: 20 backlogged bundled flows compete with
// a varying number of persistent elastic (Cubic) cross flows. Throughput
// is measured after a warmup (detection and mode convergence take several
// seconds).
func RunFig12(seed int64) []Fig12Point {
	const warmup = 20 * sim.Second
	const dur = 80 * sim.Second
	var out []Fig12Point
	for _, crossN := range []int{10, 30, 50} {
		point := Fig12Point{CrossFlows: crossN, Throughput: map[string]float64{}}
		for _, mode := range []struct {
			label string
			alg   string // "" = status quo
		}{
			{"statusquo", ""},
			{"bundler-copa", "copa"},
			{"bundler-nimbus", "basicdelay"},
		} {
			n := NewNet(NetConfig{Seed: seed})
			var site *Site
			if mode.alg != "" {
				site = n.AddSite(&bundle.Config{Algorithm: mode.alg})
			} else {
				site = n.AddSite(nil)
			}
			crossSite := n.AddSite(nil)
			var bundleSenders []*tcp.Sender
			for i := 0; i < 20; i++ {
				bundleSenders = append(bundleSenders, site.AddFlow(1<<40, tcp.NewCubic(), nil))
			}
			for i := 0; i < crossN; i++ {
				crossSite.AddFlow(1<<40, tcp.NewCubic(), nil)
			}
			n.Eng.RunUntil(warmup)
			var at20 int64
			for _, s := range bundleSenders {
				at20 += s.Acked()
			}
			n.Eng.RunUntil(dur)
			var acked int64
			for _, s := range bundleSenders {
				acked += s.Acked()
			}
			if site.SB != nil {
				site.SB.Stop()
			}
			point.Throughput[mode.label] = float64(acked-at20) * 8 / (dur - warmup).Seconds() / 1e6
		}
		out = append(out, point)
	}
	return out
}

// SchedulerByName builds the sendbox scheduler a spec names (the
// grammar is qdisc.Parse's) with a depth in packets. It panics on a bad
// spec; code paths fed by user-supplied config files call qdisc.Parse
// instead.
func SchedulerByName(eng *sim.Engine, name string, packets int) qdisc.Qdisc {
	q, err := qdisc.Parse(eng, name, packets, nil)
	if err != nil {
		panic("scenario: " + err.Error())
	}
	return q
}

// --- experiment adapters ---

// fctExp is the single-point FCT run: the unit of work the sweep engine
// fans out, and one interactive run as bundler-bench -experiment fct.
// Registered hidden — it is looked up or swept, not part of "all".
type fctExp struct{}

func (fctExp) Name() string { return "fct" }
func (fctExp) Desc() string {
	return "single-point FCT run (the §7.1 setup): rate × RTT × load × scheduler × CC"
}

func (fctExp) Params() []exp.Param {
	return []exp.Param{
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
	}
}

// Metadata implements exp.Metadater: run-store manifests for swept fct
// cells record which part of the paper the cell reproduces.
func (fctExp) Metadata() map[string]string {
	return map[string]string{"paper": "§7.1", "figure": "9 (single point)"}
}

func (e fctExp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	var (
		mode     = b.String("mode")
		alg      = b.String("alg")
		sched    = b.String("sched")
		endhost  = b.String("endhost")
		rate     = b.Float("rate")
		rtt      = b.Duration("rtt")
		load     = b.Float("load")
		loadfrac = b.Float("loadfrac")
		requests = b.Int("requests")
		tunnel   = b.Bool("tunnel")
	)
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	if loadfrac > 0 {
		load = loadfrac * rate
	}
	rec := RunFCT(FCTOptions{
		Seed:       seed,
		LinkRate:   rate,
		RTT:        sim.FromSeconds(rtt.Seconds()),
		Requests:   requests,
		OfferedBps: load,
		Mode:       mode,
		InnerAlg:   alg,
		Scheduler:  sched,
		EndhostCC:  endhost,
		TunnelMode: tunnel,
	})

	s := rec.Slowdowns.Summarize()
	var w strings.Builder
	fmt.Fprintf(&w, "mode=%s alg=%s sched=%s endhost=%s rate=%.0fMbps rtt=%s load=%.0fMbps\n",
		mode, alg, sched, endhost, rate/1e6, rtt, load/1e6)
	fmt.Fprintf(&w, "completed %d requests, %.1f MB total\n", rec.Completed, float64(rec.Bytes)/1e6)
	fmt.Fprintf(&w, "slowdown: p10=%.2f p50=%.2f p90=%.2f p99=%.2f mean=%.2f\n",
		s.P10, s.P50, s.P90, s.P99, s.Mean)
	for c := workload.ClassSmall; c <= workload.ClassLarge; c++ {
		cs := rec.ByClass[c].Summarize()
		fmt.Fprintf(&w, "  %-12s n=%-6d p50=%.2f p90=%.2f p99=%.2f\n", c, cs.N, cs.P50, cs.P90, cs.P99)
	}
	fmt.Fprintf(&w, "FCT: p50=%.1fms p99=%.1fms\n", rec.FCTms.Quantile(0.5), rec.FCTms.Quantile(0.99))

	res := exp.Result{Experiment: "fct", Seed: seed, Params: p, Report: w.String(),
		Summaries: map[string]stats.Summary{"slowdown": s}}
	res.AddMetric("completed", float64(rec.Completed), "requests")
	res.AddMetric("bytes", float64(rec.Bytes), "B")
	res.AddMetric("fct-p50", rec.FCTms.Quantile(0.5), "ms")
	res.AddMetric("fct-p99", rec.FCTms.Quantile(0.99), "ms")
	return res, nil
}

// fig9Exp is the headline comparison (Figure 9).
type fig9Exp struct{}

func (fig9Exp) Name() string { return "fig9" }
func (fig9Exp) Desc() string {
	return "Figure 9: FCT slowdowns — status quo vs Bundler (SFQ/FIFO) vs in-network FQ"
}
func (fig9Exp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

// Metadata implements exp.Metadater for run-store manifests.
func (fig9Exp) Metadata() map[string]string {
	return map[string]string{"paper": "§7.1", "figure": "9"}
}

func (e fig9Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	rows := RunFig9(seed, requests)
	var w strings.Builder
	ReportHeader(&w, fmt.Sprintf("Figure 9: FCT slowdowns (%d requests; paper: 1M, medians 1.76 → 1.26)", requests))
	WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "fig9", Seed: seed, Params: p, Report: w.String()}
	AddFCTRowMetrics(&res, rows)
	return res, nil
}

// fig11Exp sweeps short-flow cross traffic (Figure 11).
type fig11Exp struct{}

func (fig11Exp) Name() string { return "fig11" }
func (fig11Exp) Desc() string {
	return "Figure 11: short-flow cross traffic sweep against a fixed 48 Mbit/s bundle"
}
func (fig11Exp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

func (e fig11Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	points := RunFig11(seed, requests/2)
	var w strings.Builder
	ReportHeader(&w, "Figure 11: short-flow cross traffic sweep (bundle fixed at 48 Mbit/s)")
	fmt.Fprintf(&w, "%-12s %12s %14s %16s\n", "cross Mb/s", "status quo", "bundler-copa", "bundler-nimbus")
	res := exp.Result{Experiment: "fig11", Seed: seed, Params: p}
	for _, pt := range points {
		fmt.Fprintf(&w, "%-12.0f %12.2f %14.2f %16.2f\n",
			pt.CrossBps/1e6, pt.Median["statusquo"], pt.Median["bundler-copa"], pt.Median["bundler-nimbus"])
		prefix := fmt.Sprintf("cross%.0fM/", pt.CrossBps/1e6)
		for _, label := range []string{"statusquo", "bundler-copa", "bundler-nimbus"} {
			res.AddMetric(prefix+label+"/median-slowdown", pt.Median[label], "")
		}
	}
	res.Report = w.String()
	return res, nil
}

// fig12Exp measures persistent elastic cross flows (Figure 12).
type fig12Exp struct{}

func (fig12Exp) Name() string { return "fig12" }
func (fig12Exp) Desc() string {
	return "Figure 12: bundle throughput against persistent elastic (Cubic) cross flows"
}
func (fig12Exp) Params() []exp.Param { return nil }

func (fig12Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	points := RunFig12(seed)
	var w strings.Builder
	ReportHeader(&w, "Figure 12: persistent elastic cross flows (paper: 12-22% bundle throughput loss)")
	fmt.Fprintf(&w, "%-12s %12s %14s %16s\n", "cross flows", "status quo", "bundler-copa", "bundler-nimbus")
	res := exp.Result{Experiment: "fig12", Seed: seed, Params: p}
	for _, pt := range points {
		fmt.Fprintf(&w, "%-12d %9.1f Mb/s %11.1f Mb/s %13.1f Mb/s\n",
			pt.CrossFlows, pt.Throughput["statusquo"], pt.Throughput["bundler-copa"], pt.Throughput["bundler-nimbus"])
		prefix := fmt.Sprintf("cross%d/", pt.CrossFlows)
		for _, label := range []string{"statusquo", "bundler-copa", "bundler-nimbus"} {
			res.AddMetric(prefix+label+"/Mbps", pt.Throughput[label], "Mbps")
		}
	}
	res.Report = w.String()
	return res, nil
}

// fig13Exp runs competing bundles (Figure 13).
type fig13Exp struct{}

func (fig13Exp) Name() string { return "fig13" }
func (fig13Exp) Desc() string {
	return "Figure 13: two bundles sharing the bottleneck at 1:1 and 2:1 load splits"
}
func (fig13Exp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

func (e fig13Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	rows := RunFig13(seed, requests)
	var w strings.Builder
	ReportHeader(&w, "Figure 13: competing bundles (aggregate 84 Mbit/s)")
	res := exp.Result{Experiment: "fig13", Seed: seed, Params: p}
	for _, r := range rows {
		var parts []string
		for i, m := range r.Medians {
			parts = append(parts, fmt.Sprintf("bundle%d p50=%.2f", i+1, m))
			res.AddMetric(strings.ReplaceAll(r.Label, " ", "_")+fmt.Sprintf("/bundle%d-median", i+1), m, "")
		}
		fmt.Fprintf(&w, "%-24s %s\n", r.Label, strings.Join(parts, "  "))
	}
	res.Report = w.String()
	return res, nil
}

// fig14Exp compares inner-loop algorithms (Figure 14).
type fig14Exp struct{}

func (fig14Exp) Name() string { return "fig14" }
func (fig14Exp) Desc() string {
	return "Figure 14: inner-loop congestion control comparison (Copa vs BasicDelay vs BBR)"
}
func (fig14Exp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

func (e fig14Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	rows := RunFig14(seed, requests)
	var w strings.Builder
	ReportHeader(&w, "Figure 14: inner-loop congestion control comparison")
	WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "fig14", Seed: seed, Params: p, Report: w.String()}
	AddFCTRowMetrics(&res, rows)
	return res, nil
}

// fig15Exp runs the idealized TCP proxy comparison (Figure 15).
type fig15Exp struct{}

func (fig15Exp) Name() string { return "fig15" }
func (fig15Exp) Desc() string {
	return "Figure 15: idealized TCP proxy (fixed endhost windows) vs normal Bundler"
}
func (fig15Exp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

func (e fig15Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	rows := RunFig15(seed, requests)
	var w strings.Builder
	ReportHeader(&w, "Figure 15: idealized TCP proxy (fixed 450-packet endhost windows)")
	WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "fig15", Seed: seed, Params: p, Report: w.String()}
	AddFCTRowMetrics(&res, rows)
	return res, nil
}

// sec74Exp varies the endhost congestion control (§7.4).
type sec74Exp struct{}

func (sec74Exp) Name() string { return "sec74" }
func (sec74Exp) Desc() string {
	return "§7.4: Bundler's benefit with Cubic, Reno, and BBR endhosts"
}
func (sec74Exp) Params() []exp.Param { return []exp.Param{requestsParam("15000")} }

func (e sec74Exp) Run(seed int64, p exp.Params) (exp.Result, error) {
	b := exp.Bind(e.Params(), p)
	requests := b.Int("requests")
	if err := b.Err(); err != nil {
		return exp.Result{}, err
	}
	pairs := RunSec74(seed, requests)
	var ccs []string
	for cc := range pairs {
		ccs = append(ccs, cc)
	}
	sort.Strings(ccs)
	var w strings.Builder
	ReportHeader(&w, "§7.4: endhost congestion control")
	res := exp.Result{Experiment: "sec74", Seed: seed, Params: p}
	for _, cc := range ccs {
		pair := pairs[cc]
		fmt.Fprintf(&w, "endhost %-6s status quo p50=%.2f | bundler p50=%.2f (%.0f%% lower)\n",
			cc, pair[0].Median, pair[1].Median, (1-pair[1].Median/pair[0].Median)*100)
		res.AddMetric(cc+"/statusquo-median", pair[0].Median, "")
		res.AddMetric(cc+"/bundler-median", pair[1].Median, "")
	}
	res.Report = w.String()
	return res, nil
}
