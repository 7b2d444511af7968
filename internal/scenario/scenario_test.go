package scenario

import (
	"math"
	"strings"
	"testing"

	"bundler/internal/bundle"
	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

// Request counts are scaled down from the paper's 1M so the suite runs in
// minutes; the comparative claims are stable at this scale
// (docs/PAPER_MAP.md maps each to the paper's figure and claim).
const testRequests = 15000

func TestFig9Shape(t *testing.T) {
	res := RunFig9(1, testRequests)
	byLabel := map[string]Fig9Result{}
	for _, r := range res {
		byLabel[r.Label] = r
		if r.Rec.Completed < testRequests {
			t.Fatalf("%s: only %d of %d requests completed", r.Label, r.Rec.Completed, testRequests)
		}
	}
	sq := byLabel["Status Quo"]
	sfq := byLabel["Bundler (SFQ)"]
	inet := byLabel["In-Network FQ"]
	fifo := byLabel["Bundler (FIFO)"]

	// Headline: Bundler+SFQ lowers median slowdown by ≥ 28 % (paper:
	// 1.76 → 1.26).
	if sfq.Median > 0.72*sq.Median {
		t.Errorf("Bundler median %.2f vs status quo %.2f: less than 28%% improvement", sfq.Median, sq.Median)
	}
	// In-Network FQ is at least as good as Bundler (paper: 15 % better).
	if inet.Median > sfq.Median*1.05 {
		t.Errorf("In-Network FQ median %.2f worse than Bundler %.2f", inet.Median, sfq.Median)
	}
	// Aggregate congestion control alone is not enough: FIFO at the
	// sendbox is no better than the status quo.
	if fifo.Median < sq.Median*0.95 {
		t.Errorf("Bundler+FIFO median %.2f unexpectedly beats status quo %.2f", fifo.Median, sq.Median)
	}
	// Tail benefit (paper: 48 % lower p99).
	if sfq.P99 > 0.8*sq.P99 {
		t.Errorf("Bundler p99 %.1f vs status quo %.1f: tail did not improve", sfq.P99, sq.P99)
	}
}

func TestFig14InnerCCOrdering(t *testing.T) {
	res := RunFig14(1, testRequests)
	byLabel := map[string]Fig9Result{}
	for _, r := range res {
		byLabel[r.Label] = r
	}
	copa := byLabel["Bundler (copa)"]
	basic := byLabel["Bundler (basicdelay)"]
	sq := byLabel["Status Quo"]
	// Copa and BasicDelay both beat the status quo (paper: similar
	// benefits); BBR is no better than status quo.
	if copa.Median > 0.85*sq.Median || basic.Median > 0.85*sq.Median {
		t.Errorf("delay controllers should beat status quo: copa=%.2f basic=%.2f sq=%.2f",
			copa.Median, basic.Median, sq.Median)
	}
	bbr := byLabel["Bundler (bbr)"]
	if bbr.Median < copa.Median {
		t.Errorf("BBR median %.2f should not beat Copa %.2f (it keeps an in-network queue)", bbr.Median, copa.Median)
	}
}

func TestSec74EndhostCC(t *testing.T) {
	res := RunSec74(1, testRequests)
	for cc, pair := range res {
		sq, bd := pair[0], pair[1]
		if bd.Median > 0.8*sq.Median {
			t.Errorf("endhost %s: bundler median %.2f vs status quo %.2f, want ≥ 20%% improvement",
				cc, bd.Median, sq.Median)
		}
	}
}

func TestFig15ProxyHelpsMidFlows(t *testing.T) {
	res := RunFig15(1, testRequests)
	normal, proxy := res[0], res[1]
	// Short flows: no additional benefit from termination (both finish in
	// a few RTTs).
	if proxy.ByClass[workload.ClassSmall] > normal.ByClass[workload.ClassSmall]*1.3 {
		t.Errorf("proxy hurt short flows: %.2f vs %.2f",
			proxy.ByClass[workload.ClassSmall], normal.ByClass[workload.ClassSmall])
	}
	// Medium flows skip window growth: raw completion times improve (the
	// slowdown metric floors at 1 and hides the ramp-up savings).
	pm := proxy.Rec.FCTByClass[workload.ClassMedium].Median()
	nm := normal.Rec.FCTByClass[workload.ClassMedium].Median()
	if pm > nm {
		t.Errorf("proxy did not help medium flows: median FCT %.1fms vs %.1fms", pm, nm)
	}
}

func TestFig13CompetingBundles(t *testing.T) {
	res := RunFig13(1, testRequests)
	var sqMedian float64
	for _, r := range res {
		if r.Label == "Status Quo (aggregate)" {
			sqMedian = r.Medians[0]
		}
	}
	for _, r := range res {
		if r.Label == "Status Quo (aggregate)" {
			continue
		}
		for i, m := range r.Medians {
			if m > 0.9*sqMedian {
				t.Errorf("split %s bundle %d median %.2f vs status quo %.2f: no improvement",
					r.Label, i, m, sqMedian)
			}
		}
	}
}

func TestFig11ShortCrossSweep(t *testing.T) {
	points := RunFig11(1, 15000)
	for _, p := range points {
		sq := p.Median["statusquo"]
		for _, label := range []string{"bundler-copa", "bundler-nimbus"} {
			// The paper notes Bundler's delay controller can briefly cede
			// throughput when short-flow cross traffic builds transient
			// queues. Near-idle baselines (sq ≈ 1.0) make pure ratio
			// checks degenerate, so the bound is the larger of a 35 %
			// ratio and a small absolute penalty; a collapse still fails.
			limit := sq * 1.35
			if limit < 1.6 {
				limit = 1.6
			}
			if p.Median[label] > limit {
				t.Errorf("cross=%.0fMbps %s median %.2f much worse than status quo %.2f",
					p.CrossBps/1e6, label, p.Median[label], sq)
			}
		}
	}
	// Status quo FCTs grow with cross load (aggregate queueing effect).
	first := points[0].Median["statusquo"]
	last := points[len(points)-1].Median["statusquo"]
	if last < first {
		t.Errorf("status quo medians did not grow with cross load: %.2f -> %.2f", first, last)
	}
}

func TestFig12ElasticCrossThroughput(t *testing.T) {
	points := RunFig12(1)
	for _, p := range points {
		sq := p.Throughput["statusquo"]
		for _, label := range []string{"bundler-copa", "bundler-nimbus"} {
			got := p.Throughput[label]
			// Paper: 12–22 % average throughput loss across 10–50 cross
			// flows. Allow up to 45 % before flagging.
			if got < 0.55*sq {
				t.Errorf("%d cross flows: %s bundle throughput %.1f vs status quo %.1f (> 45%% loss)",
					p.CrossFlows, label, got, sq)
			}
		}
	}
}

func TestFig2QueueShift(t *testing.T) {
	res := RunQueueShift(1, 30*sim.Second)
	sqBn := res.StatusQuoBottleneck.MeanOver(5*sim.Second, 30*sim.Second)
	bdBn := res.BundlerBottleneck.MeanOver(5*sim.Second, 30*sim.Second)
	bdSB := res.BundlerSendbox.MeanOver(5*sim.Second, 30*sim.Second)
	if sqBn < 20 {
		t.Fatalf("status quo bottleneck queue %.1fms: no bufferbloat to shift", sqBn)
	}
	if bdBn > sqBn/2 {
		t.Errorf("bundler bottleneck queue %.1fms vs status quo %.1fms: queue did not shrink", bdBn, sqBn)
	}
	if bdSB < bdBn {
		t.Errorf("sendbox queue %.1fms < bottleneck %.1fms: queue did not shift", bdSB, bdBn)
	}
	if res.BundlerThroughput < 0.85*res.StatusQuoThroughput {
		t.Errorf("throughput %.1f vs %.1f Mbit/s: shifting the queue cost too much",
			res.BundlerThroughput, res.StatusQuoThroughput)
	}
}

func TestFig56MeasurementAccuracy(t *testing.T) {
	// One configuration here (the full 9-config sweep runs in the bench).
	var res AccuracyResult
	collectAccuracy(1, 48e6, 50*sim.Millisecond, 20*sim.Second, &res)
	if res.RTTErrMs.N() < 100 {
		t.Fatalf("only %d RTT samples", res.RTTErrMs.N())
	}
	if within := res.RTTErrMs.FractionWithin(1.2); within < 0.8 {
		t.Errorf("RTT estimates within 1.2ms: %.2f, paper reports 0.80", within)
	}
	if within := res.RateErrMbps.FractionWithin(4); within < 0.6 {
		t.Errorf("rate estimates within 4Mbps: %.2f, paper reports 0.80", within)
	}
}

func TestFig10Phases(t *testing.T) {
	res := RunFig10(1)
	p1, p2, p3 := res.Phases[0], res.Phases[1], res.Phases[2]
	// Phase 1: pure delay control, full utilization, tiny queue.
	if p1.PassThroughFrac > 0.05 {
		t.Errorf("phase 1 spent %.0f%% outside delay control with no cross traffic", p1.PassThroughFrac*100)
	}
	if p1.BundleMbps < 75 {
		t.Errorf("phase 1 bundle throughput %.1f Mbit/s, want ≈ 84", p1.BundleMbps)
	}
	if p1.MeanQueueMs > 10 {
		t.Errorf("phase 1 mean in-network queue %.1fms, want small", p1.MeanQueueMs)
	}
	// Phase 2: the buffer-filler takes a meaningful share; Bundler cedes
	// control (pass-through engages at least part of the phase).
	// With many bundle flows against one cross flow, per-flow fairness
	// gives the cross flow a small-but-alive share.
	if p2.CrossMbps < 2 {
		t.Errorf("phase 2 cross throughput %.1f Mbit/s: buffer-filler starved entirely", p2.CrossMbps)
	}
	if p2.PassThroughFrac < 0.05 {
		t.Errorf("phase 2 never entered pass-through (%.2f)", p2.PassThroughFrac)
	}
	// Phase 3: scheduling benefits return; cross web traffic flows.
	if p3.PassThroughFrac > p2.PassThroughFrac+0.2 {
		t.Errorf("phase 3 pass-through %.2f did not subside vs phase 2 %.2f",
			p3.PassThroughFrac, p2.PassThroughFrac)
	}
	if p3.ShortFlowSlowdowns.P50 > 4 {
		t.Errorf("phase 3 short-flow median slowdown %.2f: benefits did not return", p3.ShortFlowSlowdowns.P50)
	}
}

func TestFig7MultipathVisibility(t *testing.T) {
	res := RunFig7(1, 20*sim.Second)
	if res.OOOFraction < 0.2 {
		t.Errorf("OOO fraction %.3f across 4 imbalanced paths, want ≫ 5%%", res.OOOFraction)
	}
	if res.Mode != bundle.ModeDisabled {
		t.Errorf("mode = %v, want disabled", res.Mode)
	}
	if res.EstimateRTTms.N() == 0 {
		t.Error("no RTT estimates recorded")
	}
}

func TestSec76Separation(t *testing.T) {
	// Subset of the sweep for test time; the bench runs it all.
	pts := []Sec76Point{}
	for _, paths := range []int{1, 4} {
		skew := sim.Time(0)
		if paths > 1 {
			skew = 25 * sim.Millisecond
		}
		m := NewMultipathNet(1, 48e6, 100*sim.Millisecond, paths, skew, nil)
		for i := 0; i < 40; i++ {
			m.AddFlow(1<<40, tcp.NewCubic(), nil)
		}
		m.Eng.RunUntil(15 * sim.Second)
		m.SB.Stop()
		pts = append(pts, Sec76Point{Paths: paths, OOOFrac: m.SB.OOOFraction()})
	}
	if pts[0].OOOFrac > 0.01 {
		t.Errorf("single path OOO %.4f, want ≈ 0 (paper max 0.4%%)", pts[0].OOOFrac)
	}
	if pts[1].OOOFrac < 0.2 {
		t.Errorf("4-path OOO %.3f, want ≥ 20%% (paper min 20%%)", pts[1].OOOFrac)
	}
}

func TestFig16WANLatency(t *testing.T) {
	res := RunFig16(1, 15*sim.Second)
	for _, r := range res {
		// Status quo inflates well above base; Bundler restores it.
		if r.StatusQuoRTT < r.BaseRTT+20 {
			t.Errorf("%s: status quo %.1fms vs base %.1fms — no queueing to control", r.Name, r.StatusQuoRTT, r.BaseRTT)
		}
		if r.BundlerRTT > r.BaseRTT+10 {
			t.Errorf("%s: bundler RTT %.1fms did not return to base %.1fms", r.Name, r.BundlerRTT, r.BaseRTT)
		}
		// Paper: 57 % lower at the median overall.
		if r.BundlerRTT > 0.7*r.StatusQuoRTT {
			t.Errorf("%s: bundler %.1fms vs status quo %.1fms, want ≥ 30%% lower", r.Name, r.BundlerRTT, r.StatusQuoRTT)
		}
		// Bulk throughput within 25 % (paper: 1 % on real paths; the
		// emulated rate-limiter setup pays a little more).
		if r.BundlerMbps < 0.75*r.StatusQuoMbps {
			t.Errorf("%s: bundler throughput %.0f vs %.0f Mbit/s", r.Name, r.BundlerMbps, r.StatusQuoMbps)
		}
	}
}

func TestSec72Policies(t *testing.T) {
	c := RunSec72CoDel(1, 20*sim.Second)
	if c.BundlerMedianMs > 0.7*c.StatusQuoMedianMs {
		t.Errorf("FQ-CoDel median RTT %.1fms vs status quo %.1fms: want large reduction",
			c.BundlerMedianMs, c.StatusQuoMedianMs)
	}
	p := RunSec72Prio(1, 12000)
	// Medians floor at 1.0 (an unloaded-path completion), so require
	// either a large relative reduction or a near-perfect absolute one.
	if p.BundlerHigh > 0.8*p.StatusQuoHigh && p.BundlerHigh > 1.05 {
		t.Errorf("priority class median %.2f vs status quo %.2f: want large reduction",
			p.BundlerHigh, p.StatusQuoHigh)
	}
	if p.BundlerHigh > p.BundlerLow {
		t.Errorf("favored class (%.2f) should beat the other class (%.2f)", p.BundlerHigh, p.BundlerLow)
	}
}

func TestRunFCTUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown mode")
		}
	}()
	RunFCT(FCTOptions{Mode: "nonsense", Requests: 1})
}

func TestSchedulerByNameVariants(t *testing.T) {
	n := NewNet(NetConfig{Seed: 1})
	for _, name := range []string{"", "sfq", "fifo", "fqcodel", "codel", "red", "drr", "pie", "prio:443"} {
		if SchedulerByName(n.Eng, name, 100) == nil {
			t.Fatalf("nil scheduler for %q", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown scheduler")
		}
	}()
	SchedulerByName(n.Eng, "cbq", 100)
}

func TestSec9HierarchicalBundles(t *testing.T) {
	res := RunHierarchical(1, 30*sim.Second)
	if res.ParentMatched < 100 || res.SubAMatched < 100 || res.SubBMatched < 100 {
		t.Fatalf("control loops starved: parent=%d subA=%d subB=%d",
			res.ParentMatched, res.SubAMatched, res.SubBMatched)
	}
	total := res.SubAMbps + res.SubBMbps
	if total < 0.7*96 {
		t.Errorf("aggregate goodput %.1f Mbit/s through nested bundlers, want ≥ 70%% of 96", total)
	}
	// The departments share roughly fairly (the parent schedules across
	// sub-bundles with SFQ).
	ratio := res.SubAMbps / res.SubBMbps
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("department split %.1f / %.1f Mbit/s is unfair", res.SubAMbps, res.SubBMbps)
	}
	// The in-network queue still shifts to the edge boxes.
	if res.BottleneckQueueMs > 20 {
		t.Errorf("bottleneck queue %.1fms with nested bundlers, want small", res.BottleneckQueueMs)
	}
}

func TestPolicySweepOrdering(t *testing.T) {
	rows := RunPolicySweep(1, 8000)
	byName := map[string]PolicyRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// Fair-queueing disciplines protect short flows better than FIFO.
	for _, fq := range []string{"sfq", "drr", "fqcodel"} {
		if byName[fq].MedianSlowdown > byName["fifo"].MedianSlowdown {
			t.Errorf("%s median %.2f worse than fifo %.2f", fq,
				byName[fq].MedianSlowdown, byName["fifo"].MedianSlowdown)
		}
	}
	// AQMs bound probe latency versus plain FIFO.
	for _, aqm := range []string{"codel", "fqcodel", "pie"} {
		if byName[aqm].ProbeP99Ms > byName["fifo"].ProbeP99Ms*1.1 {
			t.Errorf("%s probe p99 %.1fms no better than fifo %.1fms", aqm,
				byName[aqm].ProbeP99Ms, byName["fifo"].ProbeP99Ms)
		}
	}
}

func TestExperimentsAreDeterministic(t *testing.T) {
	// The whole point of the virtual-time substrate: identical seeds give
	// bit-identical experiments.
	a := RunFCT(FCTOptions{Seed: 3, Requests: 3000, Mode: "bundler"})
	b := RunFCT(FCTOptions{Seed: 3, Requests: 3000, Mode: "bundler"})
	if a.Slowdowns.N() != b.Slowdowns.N() {
		t.Fatalf("different sample counts: %d vs %d", a.Slowdowns.N(), b.Slowdowns.N())
	}
	if a.Slowdowns.Median() != b.Slowdowns.Median() ||
		a.Slowdowns.Quantile(0.99) != b.Slowdowns.Quantile(0.99) ||
		a.Bytes != b.Bytes {
		t.Fatal("same seed produced different results")
	}
	c := RunFCT(FCTOptions{Seed: 4, Requests: 3000, Mode: "bundler"})
	if c.Bytes == a.Bytes {
		t.Fatal("different seeds produced identical workloads (suspicious)")
	}
}

// TestAblationsExperiment: the hidden ablations experiment reports every
// label `go test -bench Ablation .` used to, and stays out of "all".
func TestAblationsExperiment(t *testing.T) {
	e, ok := exp.Lookup("ablations")
	if !ok {
		t.Fatal("ablations experiment not registered")
	}
	for _, listed := range exp.All() {
		if listed.Name() == "ablations" {
			t.Fatal("ablations must stay hidden: it would lengthen -experiment all and the invariant table")
		}
	}
	res, err := e.Run(1, exp.Params{"requests": "600"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range res.Metrics {
		got[m.Name] = m.Value
	}
	for _, name := range []string{
		"rounded-matched-frac", "exact-matched-frac",
		"window-1rtt-rate-var", "window-quarter-rate-var",
		"paper-gains-err-ms", "low-gains-err-ms", "high-gains-err-ms",
		"sfq1024-median", "sfq16-median",
		"hash-matched-frac", "hash-goodput-Mbps", "tunnel-matched-frac", "tunnel-goodput-Mbps",
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("metric %q missing", name)
		} else if math.IsNaN(v) {
			t.Errorf("metric %q is NaN", name)
		}
	}
	if len(res.Metrics) != 13 {
		t.Errorf("%d metrics reported, want 13", len(res.Metrics))
	}
}

func TestWriteTimeSeries(t *testing.T) {
	var a, b stats.TimeSeries
	a.Add(sim.Second, 1)
	a.Add(2*sim.Second, 2)
	b.Add(500*sim.Millisecond, 9)
	var out strings.Builder
	if err := writeTimeSeries(&out, []string{"queue", "rate"}, []*stats.TimeSeries{&a, &b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), out.String())
	}
	if lines[0] != "queue_t,queue_v,rate_t,rate_v" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000000,1.000000,0.500000,9.000000") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",,") {
		t.Fatalf("short series not padded: %q", lines[2])
	}
}

func TestWriteTimeSeriesLengthMismatch(t *testing.T) {
	var out strings.Builder
	if err := writeTimeSeries(&out, []string{"a"}, nil); err == nil {
		t.Fatal("no error for mismatched names/series")
	}
}
