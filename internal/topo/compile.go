package topo

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"bundler/internal/bundle"
	"bundler/internal/ccalg"
	"bundler/internal/fluid"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/scenario"
	"bundler/internal/sim"
	"bundler/internal/tcp"
	"bundler/internal/udpapp"
	"bundler/internal/workload"
)

// binder parses "$param"-expanded config strings into typed values,
// remembering the first failure.
type binder struct {
	pv  map[string]string
	err error
}

func (b *binder) fail(field, val, kind string, err error) {
	if b.err == nil {
		if err != nil {
			b.err = fmt.Errorf("%s %q: bad %s: %v", field, val, kind, err)
		} else {
			b.err = fmt.Errorf("%s %q: bad %s", field, val, kind)
		}
	}
}

// str expands "$param" references.
func (b *binder) str(field, s string) string {
	out, err := expand(s, b.pv)
	if err != nil {
		if b.err == nil {
			b.err = fmt.Errorf("%s %q: %v", field, s, err)
		}
		return ""
	}
	return out
}

// rate parses a bits/s value in float syntax ("96e6"); zero or absent
// means def.
func (b *binder) rate(field, s string, def float64) float64 {
	v := b.str(field, s)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		b.fail(field, v, "rate (bits/s)", err)
		return def
	}
	if f == 0 {
		return def
	}
	return f
}

// dur parses a Go duration string ("50ms") into virtual time.
func (b *binder) dur(field, s string, def sim.Time) sim.Time {
	v := b.str(field, s)
	if v == "" {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		b.fail(field, v, "duration", err)
		return def
	}
	return sim.Time(d.Nanoseconds())
}

// count parses a non-negative integer; absent means def.
func (b *binder) count(field, s string, def int) int {
	v := b.str(field, s)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		b.fail(field, v, "count", err)
		return def
	}
	return n
}

// boolean parses a true/false value; absent means def.
func (b *binder) boolean(field, s string, def bool) bool {
	v := b.str(field, s)
	if v == "" {
		return def
	}
	t, err := strconv.ParseBool(v)
	if err != nil {
		b.fail(field, v, "bool", err)
		return def
	}
	return t
}

// bytes parses a byte count in float syntax ("1e12", "1200000").
func (b *binder) bytes(field, s string, def int64) int64 {
	v := b.str(field, s)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		b.fail(field, v, "bytes", err)
		return def
	}
	return int64(f)
}

// weight parses a scheduler class weight; absent means def. Range
// checks (positive, finite) are the caller's, so the error can name the
// class.
func (b *binder) weight(field, s string, def float64) float64 {
	v := b.str(field, s)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		b.fail(field, v, "weight", err)
		return def
	}
	return f
}

// webOut is one web workload's live state during a run.
type webOut struct {
	Host     string
	Class    string // traffic class, "" when the scenario declares none
	Requests int
	Rec      *workload.Recorder
}

// meterOut is one bundle's scheduler meter: per-class byte counts and
// the attempt/serve tally behind the work-conservation ratio, plus the
// unloaded path rate that normalizes utilization in the fairness
// report.
type meterOut struct {
	Host  string
	Sched string  // scheduler mode label ("fifo", "wfq", ...)
	Rate  float64 // unloaded bottleneck rate (bits/s) of the host's path
	Meter *qdisc.Meter
}

// bulkOut is one bulk workload's live state.
type bulkOut struct {
	Host    string
	Senders []*tcp.Sender
}

// pingOut is one probe workload's live state.
type pingOut struct {
	Host   string
	Client *udpapp.PingClient
}

// cbrOut is one constant-bit-rate workload's live state.
type cbrOut struct {
	Host    string
	RateBps float64
	PktSize int
	Stream  *udpapp.CBRStream
	Sink    *netem.Sink
}

// fluidOut is one fluid background aggregate's live state.
type fluidOut struct {
	Host  string
	Users int
	Agg   *fluid.Aggregate
}

// compiled is one instantiated scenario: the fabric, links, and
// workload probes of a single run, ready to execute.
type compiled struct {
	fab     *scenario.Fabric
	links   map[string]*netem.Link
	sites   []*scenario.Site // host declaration order
	mesh    *scenario.Mesh   // set for mesh scenarios (sites then empty)
	horizon sim.Time

	webs   []webOut
	bulks  []bulkOut
	pings  []pingOut
	cbrs   []cbrOut
	fluids []fluidOut
	meters []meterOut
}

// compile instantiates sc on a fresh engine seeded with seed. It returns
// an error — never panics — on invalid input: every name, rate, and
// reference in a config is user input.
func compile(sc Scenario, seed int64, pv map[string]string) (*compiled, error) {
	b := &binder{pv: pv}
	rtt := b.dur("rtt", sc.RTT, 50*sim.Millisecond)
	// The run bound: explicit, or (0 here) the load-scaled rule.
	horizon := b.dur("horizon", sc.Horizon, 0)
	if b.err != nil {
		return nil, b.err
	}
	if sc.Horizon != "" && horizon <= 0 {
		return nil, fmt.Errorf("horizon must be positive")
	}

	if sc.Mesh != nil {
		if len(sc.Links) > 0 || len(sc.Hosts) > 0 || len(sc.Bundles) > 0 || len(sc.Workloads) > 0 || len(sc.Classes) > 0 {
			return nil, fmt.Errorf("a mesh scenario generates its own links/hosts/bundles/workloads; remove the explicit sections")
		}
		return compileMesh(sc, seed, b, rtt, horizon)
	}

	classes, classPort, err := compileClasses(b, sc.Classes)
	if err != nil {
		return nil, err
	}

	if len(sc.Links) == 0 {
		return nil, fmt.Errorf("scenario declares no links")
	}
	if len(sc.Hosts) == 0 {
		return nil, fmt.Errorf("scenario declares no hosts")
	}

	// Validate the link graph before building anything: unique names, no
	// dangling endpoints, converging on "dst" without cycles.
	decl := make(map[string]Link, len(sc.Links))
	for _, l := range sc.Links {
		if l.Name == "" || l.Name == "dst" || l.Name == "reverse" {
			return nil, fmt.Errorf("link name %q is empty or reserved", l.Name)
		}
		if _, dup := decl[l.Name]; dup {
			return nil, fmt.Errorf("duplicate link %q", l.Name)
		}
		decl[l.Name] = l
	}
	for _, l := range sc.Links {
		if to := linkTo(l); to != "dst" {
			if _, ok := decl[to]; !ok {
				return nil, fmt.Errorf("link %q forwards to unknown link %q", l.Name, to)
			}
		}
	}

	eng := sim.NewEngine(seed)
	fab := scenario.NewFabric(eng, rtt)

	// Build links downstream-first so each has its destination receiver.
	// A pass over the declarations that makes no progress means the
	// remaining links form a cycle.
	links := make(map[string]*netem.Link, len(sc.Links))
	entries := make(map[string]netem.Receiver, len(sc.Links))
	for built := 0; built < len(sc.Links); {
		progress := false
		for _, l := range sc.Links {
			if _, done := links[l.Name]; done {
				continue
			}
			var dst netem.Receiver
			if to := linkTo(l); to == "dst" {
				dst = fab.Demux
			} else if e, ok := entries[to]; ok {
				dst = e
			} else {
				continue
			}
			link, entry, err := buildLink(b, eng, l, rtt, dst, classes)
			if err != nil {
				return nil, err
			}
			links[l.Name] = link
			entries[l.Name] = entry
			built++
			progress = true
		}
		if !progress {
			var cyclic []string
			for _, l := range sc.Links {
				if _, done := links[l.Name]; !done {
					cyclic = append(cyclic, l.Name)
				}
			}
			return nil, fmt.Errorf("link cycle through %v (links must converge on \"dst\")", cyclic)
		}
	}

	fab.OracleRate = minRateOverall(b, decl)

	// Time-varying links: schedule their rate traces.
	for _, l := range sc.Links {
		if err := scheduleTrace(b, eng, l, links[l.Name]); err != nil {
			return nil, err
		}
	}

	c := &compiled{fab: fab, links: links, horizon: horizon}

	// Hosts, with their Bundler pairs, in declaration order.
	bundleFor := make(map[string]Bundle, len(sc.Bundles))
	hostNames := make(map[string]bool, len(sc.Hosts))
	for _, h := range sc.Hosts {
		if h.Name == "" {
			return nil, fmt.Errorf("host with empty name")
		}
		if hostNames[h.Name] {
			return nil, fmt.Errorf("duplicate host %q", h.Name)
		}
		if _, ok := decl[h.Name]; ok {
			return nil, fmt.Errorf("host %q is named like a link, so attaching to it would be ambiguous", h.Name)
		}
		hostNames[h.Name] = true
	}
	for _, bd := range sc.Bundles {
		if !hostNames[bd.Host] {
			return nil, fmt.Errorf("bundle on unknown host %q", bd.Host)
		}
		if _, dup := bundleFor[bd.Host]; dup {
			return nil, fmt.Errorf("host %q has two bundles", bd.Host)
		}
		bundleFor[bd.Host] = bd
	}

	siteByName := make(map[string]*scenario.Site, len(sc.Hosts))
	hostLink := make(map[string]*netem.Link, len(sc.Hosts))
	oracleRate := make(map[string]float64, len(sc.Hosts))
	oracleRTT := make(map[string]sim.Time, len(sc.Hosts))
	for _, h := range sc.Hosts {
		attach := h.Attach
		if attach == "" {
			attach = sc.Links[0].Name
		}
		// A host attached to an earlier host nests inside that host's
		// bundle and shares its path: the slowdown oracle, and the link
		// a fluid workload loads.
		parent := siteByName[attach]
		switch {
		case attach == h.Name:
			return nil, fmt.Errorf("host %q attaches to itself", h.Name)
		case parent != nil:
			if _, ok := bundleFor[attach]; !ok {
				return nil, fmt.Errorf("host %q attaches to host %q, which has no bundle to nest in", h.Name, attach)
			}
			hostLink[h.Name] = hostLink[attach]
			oracleRate[h.Name], oracleRTT[h.Name] = oracleRate[attach], oracleRTT[attach]
		case hostNames[attach]:
			return nil, fmt.Errorf("host %q attaches to host %q, which is declared after it", h.Name, attach)
		default:
			if _, ok := decl[attach]; !ok {
				return nil, fmt.Errorf("host %q attaches to %q, which is neither a link nor an earlier host", h.Name, attach)
			}
			hostLink[h.Name] = links[attach]
			oracleRate[h.Name], oracleRTT[h.Name] = pathOracle(b, decl, attach, rtt)
		}
		oRate := oracleRate[h.Name]
		var bcfg *bundle.Config
		if bd, ok := bundleFor[h.Name]; ok {
			alg := b.str("bundle alg", bd.Alg)
			if err := knownName("inner algorithm", alg, ccalg.Names); err != nil {
				return nil, fmt.Errorf("bundle on %q: %w", h.Name, err)
			}
			queue := b.count("bundle queue", bd.Queue, 1000)
			schedName := b.str("bundle sched", bd.Sched)
			sched, err := qdisc.Parse(eng, schedName, queue, classes)
			if b.err != nil {
				return nil, b.err
			}
			if err != nil {
				return nil, fmt.Errorf("bundle on %q: %w", h.Name, err)
			}
			// With a classes section, every bundle's scheduler is wrapped
			// in a meter so the fairness report covers fifo and sfq cells
			// exactly the way it covers wfq and sp cells.
			if len(classes) > 0 {
				label := schedName
				if label == "" {
					label = "sfq"
				}
				m := qdisc.NewMeter(sched, classes)
				sched = m
				c.meters = append(c.meters, meterOut{Host: h.Name, Sched: label, Rate: oRate, Meter: m})
			}
			bcfg = &bundle.Config{Algorithm: alg, TunnelMode: bd.Tunnel, Scheduler: sched}
		}
		var site *scenario.Site
		if parent != nil {
			site = fab.AddSiteIn(parent, bcfg)
		} else {
			site = fab.AddSiteAt(entries[attach], bcfg)
		}
		c.sites = append(c.sites, site)
		siteByName[h.Name] = site
	}
	if b.err != nil {
		return nil, b.err
	}

	// Workloads in declaration order.
	maxRequests := 0
	for i, w := range sc.Workloads {
		site, ok := siteByName[w.Host]
		if !ok {
			return nil, fmt.Errorf("workload %d (%s) on unknown host %q", i, w.Kind, w.Host)
		}
		if w.Class != "" && w.Kind != "web" {
			return nil, fmt.Errorf("workload %d on %q: class is only for web workloads (got kind %q)", i, w.Host, w.Kind)
		}
		switch w.Kind {
		case "web":
			requests := b.count("web requests", w.Requests, 0)
			load := b.rate("web load", w.Load, 0)
			if b.err == nil && (requests <= 0 || load <= 0) {
				return nil, fmt.Errorf("web workload on %q needs positive requests and load", w.Host)
			}
			dist, err := webDist(b, w)
			if err != nil {
				return nil, fmt.Errorf("web workload on %q: %w", w.Host, err)
			}
			cc := b.str("web cc", w.CC)
			if err := knownName("endhost cc", cc, tcp.EndhostCCs); err != nil {
				return nil, fmt.Errorf("web workload on %q: %w", w.Host, err)
			}
			dstPort := b.count("web dstport", w.DstPort, 0)
			if dstPort > 65535 {
				return nil, fmt.Errorf("web workload on %q: dstport %d outside [0, 65535]", w.Host, dstPort)
			}
			if w.Class != "" {
				if w.DstPort != "" {
					return nil, fmt.Errorf("web workload on %q: give class or dstport, not both", w.Host)
				}
				port, ok := classPort[w.Class]
				if !ok {
					return nil, fmt.Errorf("web workload on %q: unknown class %q", w.Host, w.Class)
				}
				dstPort = int(port)
			}
			tr := scenario.Traffic{
				Dist:          dist,
				OfferedBps:    load,
				Requests:      requests,
				CC:            cc,
				FixedCwndSegs: b.count("web fixedcwnd", w.FixedCwnd, 0),
				DstPort:       uint16(dstPort),
				Warmup:        b.dur("web warmup", w.Warmup, 0),
				OracleRate:    oracleRate[w.Host],
				OracleRTT:     oracleRTT[w.Host],
			}
			if b.err != nil {
				return nil, b.err
			}
			rec := site.RunOpenLoop(tr)
			c.webs = append(c.webs, webOut{Host: w.Host, Class: w.Class, Requests: requests, Rec: rec})
			if requests > maxRequests {
				maxRequests = requests
			}
		case "bulk":
			flows := b.count("bulk flows", w.Flows, 1)
			size := b.bytes("bulk size", w.Size, 1e12)
			cc := b.str("bulk cc", w.CC)
			if err := knownName("endhost cc", cc, tcp.EndhostCCs); err != nil {
				return nil, fmt.Errorf("bulk workload on %q: %w", w.Host, err)
			}
			if b.err != nil {
				return nil, b.err
			}
			out := bulkOut{Host: w.Host}
			for f := 0; f < flows; f++ {
				out.Senders = append(out.Senders, site.AddFlow(size, tcp.NewEndhostCC(cc), nil))
			}
			c.bulks = append(c.bulks, out)
		case "ping":
			c.pings = append(c.pings, pingOut{Host: w.Host, Client: site.AddPing()})
		case "cbr":
			load := b.rate("cbr load", w.Load, 0)
			pktSize := b.count("cbr pktsize", w.PktSize, pkt.MTU)
			if b.err == nil && load <= 0 {
				return nil, fmt.Errorf("cbr workload on %q needs a positive load", w.Host)
			}
			if b.err == nil && (pktSize <= pkt.HeaderBytes || pktSize > pkt.MTU) {
				return nil, fmt.Errorf("cbr workload on %q: pktsize %d outside (%d, %d]", w.Host, pktSize, pkt.HeaderBytes, pkt.MTU)
			}
			if b.err != nil {
				return nil, b.err
			}
			stream, sink := site.AddCBR(load, pktSize)
			c.cbrs = append(c.cbrs, cbrOut{Host: w.Host, RateBps: load, PktSize: pktSize, Stream: stream, Sink: sink})
		case "fluid":
			users := b.count("fluid users", w.Users, 0)
			if b.err == nil && users <= 0 {
				return nil, fmt.Errorf("fluid workload on %q needs a positive users count", w.Host)
			}
			if b.err != nil {
				return nil, b.err
			}
			// The aggregate loads the host's attach link directly — no
			// endpoints, no packets, O(1) state however large users is.
			agg := fluid.Attach(eng, hostLink[w.Host], 0)
			agg.AddClass(fluid.Class{Name: w.Host, Users: users, RTT: rtt})
			c.fluids = append(c.fluids, fluidOut{Host: w.Host, Users: users, Agg: agg})
		default:
			return nil, fmt.Errorf("workload %d on %q: unknown kind %q (want web, bulk, ping, cbr, or fluid)", i, w.Host, w.Kind)
		}
	}
	if b.err != nil {
		return nil, b.err
	}

	if c.horizon == 0 {
		if maxRequests == 0 {
			return nil, fmt.Errorf("an explicit horizon is required when no web workload gates completion")
		}
		c.horizon = scenario.LoadHorizon(maxRequests)
	}
	return c, nil
}

// compileMesh instantiates a mesh scenario through scenario.NewMesh —
// the same fabric the registered mesh experiment drives — and adapts its
// per-pair recorders into the compiled form the report renderers expect
// (one web workload named "s<i>-s<j>" per ordered site pair).
func compileMesh(sc Scenario, seed int64, b *binder, rtt, horizon sim.Time) (*compiled, error) {
	d := sc.Mesh
	sites := b.count("mesh sites", d.Sites, 0)
	mode := b.str("mesh mode", d.Mode)
	access := b.rate("mesh accessrate", d.AccessRate, 96e6)
	core := b.rate("mesh corerate", d.CoreRate, 0)
	bundled := b.boolean("mesh bundled", d.Bundled, false)
	queue := b.count("mesh queue", d.Queue, 1000)
	perturb := b.dur("mesh perturb", d.Perturb, 0)
	jitter := b.dur("mesh jitter", d.Jitter, 0)
	ordered := b.boolean("mesh jitterordered", d.JitterOrdered, true)
	requests := b.count("mesh requests", d.Requests, 300)
	load := b.rate("mesh load", d.Load, 0)
	users := b.count("mesh users", d.Users, 0)
	sketch := b.str("mesh sketch", d.Sketch)
	if b.err != nil {
		return nil, b.err
	}
	if d.Sites == "" {
		return nil, fmt.Errorf("mesh needs a sites count")
	}
	opt := scenario.MeshOptions{
		Seed:                seed,
		Sites:               sites,
		Mode:                mode,
		AccessRate:          access,
		CoreRate:            core,
		RTT:                 rtt,
		Bundled:             bundled,
		SendboxQueuePackets: queue,
		PerturbPeriod:       perturb,
		JitterMax:           jitter,
		JitterOrdered:       ordered,
		Requests:            requests,
		OfferedBps:          load,
		BgUsersPerSite:      users,
		Horizon:             horizon,
	}
	if err := opt.SetSketch(sketch); err != nil {
		return nil, fmt.Errorf("mesh %w", err)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	m := scenario.NewMesh(opt)
	c := &compiled{mesh: m, horizon: m.Opt.Horizon}
	for _, pr := range m.Pairs {
		c.webs = append(c.webs, webOut{
			Host: fmt.Sprintf("s%d-s%d", pr.Src, pr.Dst), Requests: requests, Rec: pr.Rec})
	}
	for i, a := range m.Fluids {
		c.fluids = append(c.fluids, fluidOut{Host: fmt.Sprintf("s%d", i), Users: a.Users(), Agg: a})
	}
	return c, nil
}

// compileClasses validates a scenario's classes section into the qdisc
// form plus a name→port lookup for class-assigned workloads. Weights
// default to 1 (equal shares) when omitted.
func compileClasses(b *binder, decls []ClassDecl) ([]qdisc.Class, map[string]uint16, error) {
	if len(decls) == 0 {
		return nil, nil, nil
	}
	classes := make([]qdisc.Class, 0, len(decls))
	byName := make(map[string]uint16, len(decls))
	ports := make(map[int]string, len(decls))
	for i, d := range decls {
		if d.Name == "" {
			return nil, nil, fmt.Errorf("class %d has no name", i)
		}
		if _, dup := byName[d.Name]; dup {
			return nil, nil, fmt.Errorf("duplicate class %q", d.Name)
		}
		port := b.count("class "+d.Name+" port", d.Port, 0)
		weight := b.weight("class "+d.Name+" weight", d.Weight, 1)
		if b.err != nil {
			return nil, nil, b.err
		}
		if port < 1 || port > 65535 {
			return nil, nil, fmt.Errorf("class %q: port %d outside [1, 65535]", d.Name, port)
		}
		if prev, dup := ports[port]; dup {
			return nil, nil, fmt.Errorf("classes %q and %q share port %d", prev, d.Name, port)
		}
		if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			return nil, nil, fmt.Errorf("class %q: weight must be positive and finite (got %g)", d.Name, weight)
		}
		ports[port] = d.Name
		byName[d.Name] = uint16(port)
		classes = append(classes, qdisc.Class{Name: d.Name, Port: uint16(port), Weight: weight})
	}
	return classes, byName, nil
}

// knownName rejects a name outside a package's vocabulary; "" is that
// package's default and always allowed.
func knownName(kind, name string, names []string) error {
	if name == "" || slices.Contains(names, name) {
		return nil
	}
	return fmt.Errorf("unknown %s %q (want %s)", kind, name, strings.Join(names, ", "))
}

// linkTo resolves a link's downstream name ("dst" default).
func linkTo(l Link) string {
	if l.To == "" {
		return "dst"
	}
	return l.To
}

// buildLink constructs one netem.Link (and its loss wrapper, if any)
// delivering into dst.
func buildLink(b *binder, eng *sim.Engine, l Link, rtt sim.Time, dst netem.Receiver, classes []qdisc.Class) (*netem.Link, netem.Receiver, error) {
	rate := b.rate("link "+l.Name+" rate", l.Rate, 0)
	delay := b.dur("link "+l.Name+" delay", l.Delay, 0)
	if b.err != nil {
		return nil, nil, b.err
	}
	if rate < netem.MinRate {
		return nil, nil, fmt.Errorf("link %q rate %.0f below the %.0f bits/s minimum", l.Name, rate, netem.MinRate)
	}
	bufBytes := b.bytes("link "+l.Name+" buffer", l.Buffer, int64(netem.BDPBuffer(rate, rtt)))
	if b.err != nil {
		return nil, nil, b.err
	}
	if bufBytes < pkt.MTU {
		return nil, nil, fmt.Errorf("link %q buffer %d below one MTU (%d bytes)", l.Name, bufBytes, pkt.MTU)
	}
	q, err := linkQdisc(b, eng, l, int(bufBytes), classes)
	if err != nil {
		return nil, nil, err
	}
	// Exit-side delay variation: the jitter element sits between the
	// link and its downstream receiver.
	jmax := b.dur("link "+l.Name+" jitter", l.Jitter, 0)
	ordered := b.boolean("link "+l.Name+" jitterordered", l.JitterOrdered, false)
	if b.err != nil {
		return nil, nil, b.err
	}
	if ordered && l.Jitter == "" {
		return nil, nil, fmt.Errorf("link %q: jitterordered without a jitter bound", l.Name)
	}
	if jmax > 0 {
		if ordered {
			dst = netem.NewOrderedJitter(eng, jmax, dst)
		} else {
			dst = netem.NewJitter(eng, jmax, dst)
		}
	}
	link := netem.NewLink(eng, l.Name, rate, delay, q, dst)
	entry := netem.Receiver(link)
	if l.Loss != 0 {
		if l.Loss < 0 || l.Loss > 1 {
			return nil, nil, fmt.Errorf("link %q loss %g outside [0, 1]", l.Name, l.Loss)
		}
		entry = netem.NewLossy(eng, l.Loss, link)
	}
	return link, entry, nil
}

// linkQdisc builds a link's queueing discipline with a byte budget:
// FIFO takes it directly, packet-budgeted disciplines get bufBytes/MTU.
func linkQdisc(b *binder, eng *sim.Engine, l Link, bufBytes int, classes []qdisc.Class) (qdisc.Qdisc, error) {
	name := b.str("link "+l.Name+" qdisc", l.Qdisc)
	if b.err != nil {
		return nil, b.err
	}
	if name == "" || name == "fifo" {
		// FIFO takes the byte budget exactly (no MTU rounding), matching
		// the scenario dumbbell's 2×BDP bottleneck byte for byte.
		return qdisc.NewFIFO(bufBytes), nil
	}
	q, err := qdisc.Parse(eng, name, bufBytes/pkt.MTU, classes)
	if err != nil {
		return nil, fmt.Errorf("link %q: %w", l.Name, err)
	}
	return q, nil
}

// scheduleTrace validates and installs a link's rate trace.
func scheduleTrace(b *binder, eng *sim.Engine, l Link, link *netem.Link) error {
	if len(l.RateTrace) == 0 {
		if l.Repeat != "" {
			return fmt.Errorf("link %q: repeat without a ratetrace", l.Name)
		}
		return nil
	}
	steps := make([]netem.RateStep, len(l.RateTrace))
	for i, s := range l.RateTrace {
		at := b.dur(fmt.Sprintf("link %s trace[%d] at", l.Name, i), s.At, 0)
		rate := b.rate(fmt.Sprintf("link %s trace[%d] rate", l.Name, i), s.Rate, 0)
		if b.err != nil {
			return b.err
		}
		if rate <= 0 {
			return fmt.Errorf("link %q trace[%d]: rate must be positive", l.Name, i)
		}
		if i > 0 && at <= steps[i-1].At {
			return fmt.Errorf("link %q trace: steps must be sorted by time", l.Name)
		}
		steps[i] = netem.RateStep{At: at, Bps: rate}
	}
	period := b.dur("link "+l.Name+" repeat", l.Repeat, 0)
	if b.err != nil {
		return b.err
	}
	if period > 0 && steps[len(steps)-1].At >= period {
		return fmt.Errorf("link %q trace: step at %s is beyond the %s repeat period",
			l.Name, steps[len(steps)-1].At, period)
	}
	netem.ScheduleRate(eng, link, steps, period)
	return nil
}

// webDist resolves a web workload's size distribution: inline CDF
// points, a named built-in, or nil (the default paper CDF).
func webDist(b *binder, w Workload) (*workload.SizeDist, error) {
	if len(w.Sizes) > 0 || len(w.Probs) > 0 {
		if w.Dist != "" {
			return nil, fmt.Errorf("give dist or inline sizes/probs, not both")
		}
		return workload.MakeSizeDist(w.Sizes, w.Probs)
	}
	name := b.str("web dist", w.Dist)
	if b.err != nil {
		return nil, b.err
	}
	if name == "" {
		return nil, nil // Site.RunOpenLoop defaults to the paper CDF
	}
	return workload.NamedDist(name)
}

// pathOracle walks a host's attach chain to the destination and returns
// the unloaded-path parameters that normalize the slowdown metric: the
// minimum base link rate (the path bottleneck) and the path round trip
// (forward propagation along the chain plus the rtt/2 reverse path). For
// a host whose chain delays sum to rtt/2 — every single-link dumbbell —
// this is exactly the scenario-wide rtt.
func pathOracle(b *binder, decl map[string]Link, attach string, rtt sim.Time) (float64, sim.Time) {
	min := 0.0
	forward := sim.Time(0)
	for name := attach; name != "dst"; name = linkTo(decl[name]) {
		l := decl[name]
		r := b.rate("link "+l.Name+" rate", l.Rate, 0)
		if min == 0 || r < min {
			min = r
		}
		forward += b.dur("link "+l.Name+" delay", l.Delay, 0)
	}
	return min, forward + rtt/2
}

// minRateOverall returns the minimum rate across all links (the global
// bottleneck), the fabric's fallback oracle.
func minRateOverall(b *binder, decl map[string]Link) float64 {
	min := 0.0
	for _, l := range decl {
		r := b.rate("link "+l.Name+" rate", l.Rate, 0)
		if min == 0 || r < min {
			min = r
		}
	}
	return min
}

// run executes the compiled scenario: advance until every web workload
// completes its request count (or the horizon), then stop the sendboxes
// and paced streams. maxHorizon, when positive, caps the horizon — the
// config smoke tests use it to keep shipped examples cheap to verify.
// It returns the virtual stop time.
func (c *compiled) run(maxHorizon sim.Time) sim.Time {
	h := c.horizon
	if maxHorizon > 0 && maxHorizon < h {
		h = maxHorizon
	}
	var check func() bool
	if len(c.webs) > 0 {
		check = func() bool {
			for _, w := range c.webs {
				if w.Rec.Completed < w.Requests {
					return false
				}
			}
			return true
		}
	}
	var stop sim.Time
	if c.mesh != nil {
		// Mesh scenarios run on the sharded world; RunUntil applies the
		// mesh's own per-pair completion check and stops its control
		// planes on return.
		stop = c.mesh.RunUntil(h)
	} else {
		stop = c.fab.RunUntilDone(h, check)
	}
	for _, s := range c.sites {
		if s.SB != nil {
			s.SB.Stop()
		}
	}
	for _, cb := range c.cbrs {
		cb.Stream.Stop()
	}
	return stop
}
