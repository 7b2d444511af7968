package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"bundler/internal/bundle"
	"bundler/internal/ccalg"
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
	// SendboxQueuePackets is the sendbox scheduler depth (default 1000).
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
	if o.InnerAlg == "" {
		o.InnerAlg = "copa"
	}
	if o.SendboxQueuePackets == 0 {
		o.SendboxQueuePackets = 1000
	}
	if o.Horizon == 0 {
		o.Horizon = LoadHorizon(o.Requests)
	}
}

// LoadHorizon is the web experiments' load-scaled run bound for a
// workload of requests flows: 10 ms of virtual time per request, never
// under 120 s.
func LoadHorizon(requests int) sim.Time {
	return max(10*sim.Time(requests)*sim.Millisecond, 120*sim.Second)
}

// RunFCT executes one FCT scenario and returns the workload recorder.
func RunFCT(o FCTOptions) *workload.Recorder {
	o.fill()
	cfg := netConfig{Seed: o.Seed, LinkRate: o.LinkRate, RTT: o.RTT}
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
	n := newNet(cfg)

	var bcfg *bundle.Config
	if o.Mode == "bundler" {
		bcfg = n.bundleConfig(o.InnerAlg, o.Scheduler, o.SendboxQueuePackets)
		bcfg.TunnelMode = o.TunnelMode
	}
	site := n.AddSite(bcfg)

	rec := site.RunOpenLoop(Traffic{
		OfferedBps:    o.OfferedBps,
		Requests:      o.Requests,
		CC:            o.EndhostCC,
		FixedCwndSegs: o.FixedCwnd,
	})
	n.RunUntilDone(o.Horizon, func() bool { return rec.Completed >= o.Requests })
	site.Stop()
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

// runFig14 reproduces Figure 14: the inner-loop algorithm comparison
// (Copa vs BasicDelay vs BBR) plus the status-quo baseline.
func runFig14(seed int64, requests int) []Fig9Result {
	var out []Fig9Result
	out = append(out, SummarizeFCT("Status Quo",
		RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "statusquo"})))
	for _, alg := range ccalg.Names {
		rec := RunFCT(FCTOptions{Seed: seed, Requests: requests, Mode: "bundler", InnerAlg: alg})
		out = append(out, SummarizeFCT("Bundler ("+alg+")", rec))
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

// crossVariants are the configurations Figures 11 and 12 set against
// cross traffic: no Bundler (alg ""), and Bundler with each delay-based
// inner loop.
var crossVariants = []struct{ label, alg string }{
	{"statusquo", ""},
	{"bundler-copa", "copa"},
	{"bundler-nimbus", "basicdelay"},
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

// --- experiment bodies (the table is in experiments.go) ---

// oneOf rejects a name-valued param outside its vocabulary.
func oneOf(param, v string, allowed ...string) error {
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return fmt.Errorf("%s=%q (want %s)", param, v, strings.Join(allowed, ", "))
}

// fct is the single-point FCT run.
func fct(r *exp.Run) error {
	var (
		mode     = r.String("mode")
		alg      = r.String("alg")
		sched    = r.String("sched")
		endhost  = r.String("endhost")
		rate     = r.Float("rate")
		rtt      = r.Duration("rtt") // as typed, for the report line
		load     = r.Float("load")
		loadfrac = r.Float("loadfrac")
		requests = r.Int("requests")
		tunnel   = r.Bool("tunnel")
	)
	// RunFCT and the constructors under it panic on a name they do not
	// know — right for the figures' literals, wrong for a -set value.
	_, schedErr := qdisc.Parse(sim.NewEngine(0), sched, 1000, nil) // a scratch clock: PIE ticks on it
	if err := cmp.Or(
		oneOf("mode", mode, "statusquo", "bundler", "innetwork"),
		oneOf("alg", alg, ccalg.Names...),
		oneOf("endhost", endhost, tcp.EndhostCCs...),
		schedErr,
	); err != nil {
		return err
	}
	if loadfrac > 0 {
		load = loadfrac * rate
	}
	rec := RunFCT(FCTOptions{
		Seed:       r.Seed,
		LinkRate:   rate,
		RTT:        simDuration(r, "rtt"),
		Requests:   requests,
		OfferedBps: load,
		Mode:       mode,
		InnerAlg:   alg,
		Scheduler:  sched,
		EndhostCC:  endhost,
		TunnelMode: tunnel,
	})

	s := rec.Slowdowns.Summarize()
	fmt.Fprintf(r, "mode=%s alg=%s sched=%s endhost=%s rate=%.0fMbps rtt=%s load=%.0fMbps\n",
		mode, alg, sched, endhost, rate/1e6, rtt, load/1e6)
	fmt.Fprintf(r, "completed %d requests, %.1f MB total\n", rec.Completed, float64(rec.Bytes)/1e6)
	fmt.Fprintf(r, "slowdown: p10=%.2f p50=%.2f p90=%.2f p99=%.2f mean=%.2f\n",
		s.P10, s.P50, s.P90, s.P99, s.Mean)
	for c := workload.ClassSmall; c <= workload.ClassLarge; c++ {
		cs := rec.ByClass[c].Summarize()
		fmt.Fprintf(r, "  %-12s n=%-6d p50=%.2f p90=%.2f p99=%.2f\n", c, cs.N, cs.P50, cs.P90, cs.P99)
	}
	fmt.Fprintf(r, "FCT: p50=%.1fms p99=%.1fms\n", rec.FCTms.Quantile(0.5), rec.FCTms.Quantile(0.99))

	r.Summaries = map[string]stats.Summary{"slowdown": s}
	r.AddMetric("completed", float64(rec.Completed), "requests")
	r.AddMetric("bytes", float64(rec.Bytes), "B")
	r.AddMetric("fct-p50", rec.FCTms.Quantile(0.5), "ms")
	r.AddMetric("fct-p99", rec.FCTms.Quantile(0.99), "ms")
	return nil
}

// fig11 reproduces Figure 11: the bundle offers a fixed 48 Mbit/s while
// un-bundled short-flow cross traffic sweeps from 6 to 42 Mbit/s.
func fig11(r *exp.Run) error {
	requests := r.Int("requests") / 2 // per point
	ReportHeader(r, "Figure 11: short-flow cross traffic sweep (bundle fixed at 48 Mbit/s)")
	fmt.Fprintf(r, "%-12s %12s %14s %16s\n", "cross Mb/s", "status quo", "bundler-copa", "bundler-nimbus")
	for cross := 6e6; cross <= 42e6; cross += 12e6 {
		var median []float64 // median slowdown of bundle flows, per cross variant
		for _, mode := range crossVariants {
			n := newNet(netConfig{Seed: r.Seed})
			site := n.AddSite(n.bundleConfig(mode.alg, "sfq", 1000))
			crossSite := n.AddSite(nil)
			rec := site.RunOpenLoop(Traffic{OfferedBps: 48e6, Requests: requests,
				Warmup: 5 * sim.Second})
			// Scale the cross generator's request count to its offered
			// load so both workloads span the same virtual time (the
			// point measures competition, not a tail of unopposed cross
			// traffic).
			crossReqs := int(float64(requests) * cross / 48e6)
			if crossReqs < 100 {
				crossReqs = 100
			}
			crossRec := crossSite.RunOpenLoop(Traffic{OfferedBps: cross, Requests: crossReqs})
			n.RunUntilDone(600*sim.Second, func() bool {
				return rec.Completed >= requests && crossRec.Completed >= crossReqs
			})
			site.Stop()
			median = append(median, rec.Slowdowns.Median())
		}
		fmt.Fprintf(r, "%-12.0f %12.2f %14.2f %16.2f\n", cross/1e6, median[0], median[1], median[2])
		prefix := fmt.Sprintf("cross%.0fM/", cross/1e6)
		for i, v := range crossVariants {
			r.AddMetric(prefix+v.label+"/median-slowdown", median[i], "")
		}
	}
	return nil
}

// fig12 reproduces Figure 12: 20 backlogged bundled flows compete with a
// varying number of persistent elastic (Cubic) cross flows. Throughput is
// measured after a warmup (detection and mode convergence take several
// seconds).
func fig12(r *exp.Run) error {
	const warmup = 20 * sim.Second
	const dur = 80 * sim.Second
	ReportHeader(r, "Figure 12: persistent elastic cross flows (paper: 12-22% bundle throughput loss)")
	fmt.Fprintf(r, "%-12s %12s %14s %16s\n", "cross flows", "status quo", "bundler-copa", "bundler-nimbus")
	for _, crossN := range []int{10, 30, 50} {
		var mbps []float64 // bundle throughput, per cross variant
		for _, mode := range crossVariants {
			n := newNet(netConfig{Seed: r.Seed})
			site := n.AddSite(n.bundleConfig(mode.alg, "sfq", 1000))
			crossSite := n.AddSite(nil)
			var bundleSenders []*tcp.Sender
			for i := 0; i < 20; i++ {
				bundleSenders = append(bundleSenders, site.AddFlow(1<<40, tcp.NewCubic(), nil))
			}
			for i := 0; i < crossN; i++ {
				crossSite.AddFlow(1<<40, tcp.NewCubic(), nil)
			}
			mbps = append(mbps, goodputMbps(n.Eng, bundleSenders, warmup, dur))
			site.Stop()
		}
		fmt.Fprintf(r, "%-12d %9.1f Mb/s %11.1f Mb/s %13.1f Mb/s\n", crossN, mbps[0], mbps[1], mbps[2])
		prefix := fmt.Sprintf("cross%d/", crossN)
		for i, v := range crossVariants {
			r.AddMetric(prefix+v.label+"/Mbps", mbps[i], "Mbps")
		}
	}
	return nil
}

// fig13 reproduces Figure 13: two bundles sharing the bottleneck at 1:1
// and 2:1 offered-load splits, against the status-quo baseline at the
// same aggregate 84 Mbit/s.
func fig13(r *exp.Run) error {
	requests := r.Int("requests")
	ReportHeader(r, "Figure 13: competing bundles (aggregate 84 Mbit/s)")
	for _, sp := range []struct {
		label  string
		shares []float64
	}{
		{"Status Quo (aggregate)", nil},
		{"1:1", []float64{0.5, 0.5}},
		{"2:1", []float64{2.0 / 3, 1.0 / 3}},
	} {
		var recs []*workload.Recorder
		if sp.shares == nil {
			recs = append(recs, RunFCT(FCTOptions{Seed: r.Seed, Requests: requests, Mode: "statusquo"}))
		} else {
			n := newNet(netConfig{Seed: r.Seed})
			for _, share := range sp.shares {
				site := n.AddSite(defaultBundleConfig())
				recs = append(recs, site.RunOpenLoop(Traffic{
					OfferedBps: 84e6 * share,
					Requests:   int(float64(requests) * share),
				}))
			}
			n.RunUntilDone(600*sim.Second, func() bool {
				for i, rec := range recs {
					if rec.Completed < int(float64(requests)*sp.shares[i]) {
						return false
					}
				}
				return true
			})
		}
		var parts []string
		for i, rec := range recs {
			m := rec.Slowdowns.Median()
			parts = append(parts, fmt.Sprintf("bundle%d p50=%.2f", i+1, m))
			r.AddMetric(strings.ReplaceAll(sp.label, " ", "_")+fmt.Sprintf("/bundle%d-median", i+1), m, "")
		}
		fmt.Fprintf(r, "%-24s %s\n", sp.label, strings.Join(parts, "  "))
	}
	return nil
}

// sec74 reproduces the §7.4 endhost-CC result: Bundler's benefit
// persists when endhosts run Reno or BBR instead of Cubic. Rows come in
// name order.
func sec74(r *exp.Run) error {
	requests := r.Int("requests")
	ReportHeader(r, "§7.4: endhost congestion control")
	for _, cc := range slices.Sorted(slices.Values(tcp.EndhostCCs)) {
		sq := RunFCT(FCTOptions{Seed: r.Seed, Requests: requests, Mode: "statusquo", EndhostCC: cc}).Slowdowns.Median()
		bd := RunFCT(FCTOptions{Seed: r.Seed, Requests: requests, Mode: "bundler", EndhostCC: cc}).Slowdowns.Median()
		fmt.Fprintf(r, "endhost %-6s status quo p50=%.2f | bundler p50=%.2f (%.0f%% lower)\n",
			cc, sq, bd, (1-bd/sq)*100)
		r.AddMetric(cc+"/statusquo-median", sq, "")
		r.AddMetric(cc+"/bundler-median", bd, "")
	}
	return nil
}
