// Package scenario wires complete experiments: the emulated dumbbell (and
// multipath / WAN variants), the Bundler boxes, endhost traffic, and the
// measurement probes each figure of the paper's evaluation (§7–§9) needs.
// Every evaluation figure is one row of the experiment table
// (experiments.go) whose body sits beside its scenario code; the
// registered experiments are invoked by cmd/bundler-bench and by the
// benchmark under bench/.
//
// The reusable endpoint machinery — sender mux, destination demux,
// reverse path, address allocation, nested sites — lives in Fabric; the
// dumbbell type adds the paper's single bottleneck on top, and internal/topo
// compiles declarative configs into arbitrary link graphs over the same
// Fabric.
// Rates are bits/second, times sim.Time, buffers bytes.
package scenario

import (
	"bundler/internal/bundle"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/stats"
	"bundler/internal/tcp"
	"bundler/internal/udpapp"
	"bundler/internal/workload"
)

// netConfig describes the shared dumbbell.
type netConfig struct {
	Seed       int64
	LinkRate   float64  // bottleneck rate, bits/s
	RTT        sim.Time // end-to-end propagation RTT
	BufBytes   int      // bottleneck buffer; 0 → 2 BDP
	Bottleneck qdisc.Qdisc
}

func (c *netConfig) fill() {
	if c.LinkRate == 0 {
		c.LinkRate = 96e6
	}
	if c.RTT == 0 {
		c.RTT = 50 * sim.Millisecond
	}
	if c.BufBytes == 0 {
		c.BufBytes = netem.BDPBuffer(c.LinkRate, c.RTT)
	}
	if c.Bottleneck == nil {
		c.Bottleneck = qdisc.NewFIFO(c.BufBytes)
	}
}

// Fabric is the endpoint machinery every emulated topology hangs sites
// on: the sender-side mux, the destination demux, the uncongested
// reverse path for ACKs and Bundler control messages, the address /
// flow-ID allocators, and the free list of finished TCP connections
// (conn) that open-loop arrivals re-initialise in place. A sharded
// topology gives each partition its own fabric, so no list is shared
// between goroutines. There is one destination mux per fabric: every
// site's receivers and receiveboxes register on it, since addresses are
// unique per fabric, and the demux holds one route per site: each site
// has an id, which the fabric stamps on every destination address it
// allocates for the site (pkt.Addr.Site), so the demux never grows with
// the flow count. The forward path between them — one bottleneck,
// a chain, load-balanced parallel links — is the caller's to wire;
// the dumbbell type wires the paper's, and internal/topo compiles declarative
// configs into arbitrary link graphs over the same fabric. Bundles nest
// (§9) without a second builder: AddSiteIn hangs a site inside another
// site's Bundler pair.
type Fabric struct {
	eng     *sim.Engine
	muxA    *tcp.Mux
	Demux   *netem.Demux
	reverse *netem.Link

	// oracleRate (bits/s) and oracleRTT normalize recorded slowdowns:
	// the unloaded-path parameters of workload.OracleFCT. Traffic can
	// override them per workload.
	oracleRate float64
	oracleRTT  sim.Time

	// Pool, when set, is the partition-local packet pool every endpoint
	// added to this fabric mints from (sharded topologies give each
	// partition its own fabric and pool). Nil means the shared global
	// pool — the legacy single-engine configuration.
	Pool *pkt.Pool

	// Per-site and per-flow values are carved from the fabric's slabs,
	// so a bundled site pair costs a few slab slots, not a dozen objects.
	muxB      *tcp.Mux // the destination mux, shared by every site
	sites     sim.Slab[Site]
	loops     sim.Slab[openLoop]
	conns     sim.Slab[conn]
	boxes     sim.Slab[boxPair]
	floats    sim.Arena[float64] // the sample buffers of small open-loop recorders
	rings     sim.Arena[uint64]  // the senders' first scoreboard rings
	free      *conn              // finished open-loop connections, linked through conn.next
	nextSite  uint16             // the last site id handed out; ids start at 1
	nextHost  uint32
	nextCtl   uint32
	hostLimit uint32
	ctlLimit  uint32
	flowID    uint64
}

// NewFabric builds the shared endpoint machinery on eng for a path of
// round trip rtt, reverse path included; oracleRTT starts at rtt.
// Within this package, the dumbbell and the mesh set oracleRate before
// adding sites that record slowdowns; other callers give each workload
// its Traffic.OracleRate.
func NewFabric(eng *sim.Engine, rtt sim.Time) *Fabric { return newFabric(eng, rtt, 0, false) }

// newFabric is NewFabric for a caller that will add sites sites, bundled
// or not: the muxes and demux have room for every site's routes and one
// live flow per site, so they do not grow as the sites and flows start.
func newFabric(eng *sim.Engine, rtt sim.Time, sites int, bundled bool) *Fabric {
	ctl := 0 // a bundled site's control address in each mux, and its demux host route
	if bundled {
		ctl = sites
	}
	muxA := tcp.NewMuxSized(ctl + sites)
	return &Fabric{eng: eng, muxA: muxA, Demux: netem.NewDemuxSized(sites, ctl),
		reverse: netem.NewReverseLink(eng, rtt, muxA), oracleRTT: rtt, muxB: tcp.NewMuxSized(ctl + sites),
		nextHost: 1 << 16, nextCtl: 1 << 30}
}

// setIDSpace moves the fabric's address and flow-ID allocators into a
// disjoint per-partition region, so a sharded topology can decode which
// partition owns a destination host from the address bits alone (static
// cross-partition routing, no shared maps). Each base gets a 2^19-entry
// region; overflowing it panics. Must be called before any site or flow
// is added. Zero limits (the default) mean the legacy unchecked ranges.
func (f *Fabric) setIDSpace(hostBase, ctlBase uint32, flowBase uint64) {
	if f.nextHost != 1<<16 || f.nextCtl != 1<<30 || f.flowID != 0 {
		panic("scenario: setIDSpace after allocation began")
	}
	f.nextHost, f.hostLimit = hostBase, hostBase+1<<19
	f.nextCtl, f.ctlLimit = ctlBase, ctlBase+1<<19
	f.flowID = flowBase
}

// dumbbell is the emulated dumbbell: source sites on the left, a single
// bottleneck link, destination demux on the right, and an uncongested
// reverse path for ACKs and Bundler control messages.
type dumbbell struct {
	Fabric
	cfg        netConfig
	bottleneck *netem.Link
}

// newNet builds the dumbbell.
func newNet(cfg netConfig) *dumbbell {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	n := &dumbbell{Fabric: *NewFabric(eng, cfg.RTT), cfg: cfg}
	n.oracleRate = cfg.LinkRate
	n.bottleneck = netem.NewLink(eng, "bottleneck", cfg.LinkRate, cfg.RTT/2, cfg.Bottleneck, n.Demux)
	return n
}

// Site is one source-site/destination-site pairing. With a Bundler pair
// attached, its egress is the sendbox and its ingress is tapped by the
// receivebox; otherwise traffic goes straight to the bottleneck. Its id
// is stamped on every destination address its flows use, and the
// fabric's demux routes that id into the site's ingress.
type Site struct {
	net     *Fabric
	SB      *bundle.Sendbox
	rb      *bundle.Receivebox
	ingress netem.Receiver
	egress  netem.Receiver
	parent  *Site  // the enclosing site of a nested one (AddSiteIn)
	id      uint16 // pkt.Addr.Site of the site's destinations; never 0
}

// boxPair is a bundled site's Bundler pair and the tap that shows the
// site's ingress to its receivebox, in one slot of the fabric's slab.
type boxPair struct {
	sb  bundle.Sendbox
	rb  bundle.Receivebox
	tap netem.Tap
}

// addSite creates a site pairing whose egress is the dumbbell's
// bottleneck. bcfg nil means no Bundler (status quo).
func (n *dumbbell) addSite(bcfg *bundle.Config) *Site {
	return n.AddSiteAt(n.bottleneck, bcfg)
}

// AddSiteAt creates a site pairing that forwards into egress — the head
// of whatever forward path the topology wired there. bcfg nil means no
// Bundler (status quo); otherwise a Sendbox is interposed in front of
// egress and a Receivebox taps the site's ingress. The site takes the
// fabric's next site id, and the demux routes that id into its ingress.
// More than 65 535 sites on one fabric panics.
func (f *Fabric) AddSiteAt(egress netem.Receiver, bcfg *bundle.Config) *Site {
	if f.nextSite == 1<<16-1 {
		panic("scenario: site ids exhausted (65 535 sites on one fabric)")
	}
	f.nextSite++
	s := f.sites.New()
	s.net, s.id = f, f.nextSite
	if bcfg == nil {
		s.ingress = f.muxB
		s.egress = egress
		f.Demux.RouteSite(s.id, s.ingress)
		return s
	}
	sbCtl := pkt.Addr{Host: f.nextCtl, Port: 1}
	rbCtl := pkt.Addr{Host: f.nextCtl, Port: 2}
	f.nextCtl++
	if f.ctlLimit != 0 && f.nextCtl > f.ctlLimit {
		panic("scenario: control-address region exhausted (setIDSpace)")
	}
	b := f.boxes.New()
	s.SB, s.rb = &b.sb, &b.rb
	s.SB.Init(f.eng, *bcfg, egress, sbCtl, rbCtl)
	s.SB.SetPool(f.Pool)
	s.rb.Init(f.eng, f.reverse, rbCtl, sbCtl, 0)
	s.rb.SetPool(f.Pool)
	f.muxA.Register(sbCtl, s.SB)
	f.muxB.Register(rbCtl, s.rb)
	f.Demux.Route(rbCtl.Host, f.muxB) // epoch updates reach the receivebox, untapped
	b.tap.Init(s.rb, f.muxB)
	s.ingress = &b.tap
	s.egress = s.SB
	f.Demux.RouteSite(s.id, s.ingress)
	return s
}

// AddSiteIn nests a site inside parent, which must have a Bundler pair
// (§9: department bundles inside an institute bundle). The new site
// forwards into parent's sendbox, and every enclosing receivebox, the
// outermost first, observes its traffic before its own receivebox does.
// Membership is the site's demux route, as for any site: the nested
// site has its own id, and its route is re-installed here once the taps
// wrap its ingress. Control addresses bypass the taps. bcfg nil nests a
// plain member host.
func (f *Fabric) AddSiteIn(parent *Site, bcfg *bundle.Config) *Site {
	if parent.rb == nil {
		panic("scenario: AddSiteIn needs a parent with a Bundler pair")
	}
	s := f.AddSiteAt(parent.egress, bcfg)
	s.parent = parent
	for p := parent; p != nil; p = p.parent {
		t := new(netem.Tap)
		t.Init(p.rb, s.ingress)
		s.ingress = t
	}
	f.Demux.RouteSite(s.id, s.ingress)
	return s
}

// bundleConfig is the Sendbox configuration for inner-loop algorithm alg
// behind the scheduler sched names (qdisc.Parse's grammar), depth packets
// deep. Alg "" is no Bundler at all — the nil that addSite reads as
// status quo — so a with/without comparison is a loop over alg values.
// It panics on a bad spec; code paths fed by user-supplied config files
// call qdisc.Parse instead.
func (n *dumbbell) bundleConfig(alg, sched string, depth int) *bundle.Config {
	if alg == "" {
		return nil
	}
	q, err := qdisc.Parse(n.eng, sched, depth, nil)
	if err != nil {
		panic("scenario: " + err.Error())
	}
	return &bundle.Config{Algorithm: alg, Scheduler: q}
}

// stop halts the site's Bundler control loop, if it has one.
func (s *Site) stop() {
	if s.SB != nil {
		s.SB.Stop()
	}
}

// addrs allocates a fresh (source, destination) address pair. The
// destination carries the site's id, which the demux already routes
// into the site's ingress, so a flow installs no route of its own.
func (s *Site) addrs(dstPort uint16) (src, dst pkt.Addr) {
	n := s.net
	src = pkt.Addr{Host: n.nextHost, Port: 5000}
	n.nextHost++
	dst = pkt.Addr{Host: n.nextHost, Port: dstPort, Site: s.id}
	n.nextHost++
	if n.hostLimit != 0 && n.nextHost > n.hostLimit {
		panic("scenario: host-address region exhausted (setIDSpace)")
	}
	return src, dst
}

// conn is one TCP connection through a fabric: both endpoints, an
// open-loop flow's controller, and what the completion hooks read, in
// one record carved from the fabric's slab. The record is both
// endpoints' tcp.Completion (as sentHook and receivedHook), so a flow
// costs no closure.
//
// A record is reused only when all three hold: its sender has completed,
// both endpoints are unregistered, and no caller holds the sender. So
// only an open-loop arrival's record (rec set) returns to the fabric's
// free list, at its sender's completion; AddFlow hands its sender to the
// caller and never returns the record. Reuse happens only in a later
// event (the next arrival), never inside the completion callback that is
// still on Sender.Receive's stack.
type conn struct {
	snd tcp.Sender
	rcv tcp.Receiver
	net *Fabric

	src, dst pkt.Addr
	size     int64
	start    sim.Time

	// An open-loop flow records into rec (counted once past the warmup);
	// an AddFlow flow reports to done, if set.
	rec     *workload.Recorder
	counted bool
	done    func(size int64, fct sim.Time)

	// An open-loop flow's controller is re-initialised in place: cubic
	// for the default, cc for any other kind while flows ask for the same
	// one (ccName, ccSegs: Traffic's CC and FixedCwndSegs).
	cubic  tcp.Cubic
	cc     tcp.Congestion
	ccName string
	ccSegs int

	next *conn // the fabric's free list
}

// sentHook and receivedHook are a conn seen as its sender's and its
// receiver's tcp.Completion.
type (
	sentHook     conn
	receivedHook conn
)

func (h *sentHook) Complete(now sim.Time)     { (*conn)(h).senderDone(now) }
func (h *receivedHook) Complete(now sim.Time) { (*conn)(h).receiverDone(now) }

// conn takes a finished record off the free list, or carves a new one.
func (f *Fabric) conn() *conn {
	c := f.free
	if c == nil {
		c = f.conns.New()
		c.net = f
		return c
	}
	f.free, c.next = c.next, nil
	return c
}

// controller returns a fresh controller of the kind a Traffic with CC
// name and FixedCwndSegs segs asks for, re-initialised in place: Cubic,
// the default, is held by the record itself; another kind is reused when
// the record's last one was of that kind.
func (c *conn) controller(name string, segs int) tcp.Congestion {
	if segs <= 0 && (name == "" || name == "cubic") {
		c.cubic.Init()
		return &c.cubic
	}
	if c.cc != nil && c.ccName == name && c.ccSegs == segs {
		switch cc := c.cc.(type) {
		case *tcp.Reno:
			cc.Init()
		case *tcp.BBR:
			cc.Init()
		case *tcp.FixedCwnd:
			cc.Init(segs)
		}
		return c.cc
	}
	if segs > 0 {
		c.cc = tcp.NewFixedCwnd(segs)
	} else {
		c.cc = tcp.NewEndhostCC(name)
	}
	c.ccName, c.ccSegs = name, segs
	return c.cc
}

// senderDone is the sender's completion: both directions are finished,
// so both endpoints leave their muxes, and an open-loop record, whose
// sender nobody holds, goes back on the free list.
func (c *conn) senderDone(sim.Time) {
	f := c.net
	f.muxA.Unregister(c.src)
	f.muxB.Unregister(c.dst)
	if c.rec != nil {
		c.next, f.free = f.free, c
	}
}

// receiverDone is the receiver's completion, at the last byte's arrival.
func (c *conn) receiverDone(now sim.Time) {
	switch {
	case c.rec != nil && c.counted:
		c.rec.Record(c.size, now-c.start)
	case c.rec != nil:
		c.rec.RecordUncounted()
	case c.done != nil:
		c.done(c.size, now-c.start)
	}
}

// AddFlow starts a size-byte transfer through the site at the current
// virtual time and returns its sender, which stays the caller's: the
// connection is never recycled. done (optional) receives the flow's
// completion time, as observed at the receiver (last byte arrival).
// Every flow takes fresh endpoint addresses, which are never reused.
// Completion unregisters both endpoints from their muxes; the demux
// route is the site's, so a flow leaves nothing behind there.
func (s *Site) AddFlow(size int64, cc tcp.Congestion, done func(size int64, fct sim.Time)) *tcp.Sender {
	c := s.net.conn()
	c.rec, c.done = nil, done
	return s.startConn(c, size, cc, 80)
}

// startConn wires c as a size-byte transfer through the site to dstPort
// (the §7.2 priority experiment's traffic-class marker) and starts it.
func (s *Site) startConn(c *conn, size int64, cc tcp.Congestion, dstPort uint16) *tcp.Sender {
	n := s.net
	c.src, c.dst = s.addrs(dstPort)
	c.size, c.start = size, n.eng.Now()
	n.flowID++
	c.rcv.Init(n.eng, n.reverse, c.dst, c.src, n.flowID, size, (*receivedHook)(c))
	c.rcv.SetPool(n.Pool)
	c.snd.ReserveRing(&n.rings, size)
	c.snd.Init(n.eng, s.egress, c.src, c.dst, n.flowID, size, cc, (*sentHook)(c))
	c.snd.SetPool(n.Pool)
	n.muxA.Register(c.src, &c.snd)
	n.muxB.Register(c.dst, &c.rcv)
	c.snd.Start()
	return &c.snd
}

// AddPing starts a closed-loop UDP request/response pair through the site
// (the §8 latency probe) and returns the client for RTT inspection.
func (s *Site) AddPing() *udpapp.PingClient {
	n := s.net
	src, dst := s.addrs(7)
	n.flowID++
	client := udpapp.NewPingClient(n.eng, s.egress, src, dst, n.flowID)
	client.SetPool(n.Pool)
	server := udpapp.NewPingServer(n.eng, n.reverse, dst)
	server.SetPool(n.Pool)
	n.muxA.Register(src, client)
	n.muxB.Register(dst, server)
	client.Start()
	return client
}

// addPings starts n latency probes through the site.
func (s *Site) addPings(n int) []*udpapp.PingClient {
	pings := make([]*udpapp.PingClient, n)
	for i := range pings {
		pings[i] = s.AddPing()
	}
	return pings
}

// probeSamples pools the RTTs (ms) the probes measured after warmup.
func probeSamples(pings []*udpapp.PingClient, warmup sim.Time) *stats.Sample {
	all := &stats.Sample{}
	for _, pc := range pings {
		for i, at := range pc.Series.T {
			if at > warmup {
				all.Add(pc.Series.V[i])
			}
		}
	}
	return all
}

// goodputMbps runs eng to from and then to to, and returns what the
// senders had acknowledged in between, in Mbit/s.
func goodputMbps(eng *sim.Engine, senders []*tcp.Sender, from, to sim.Time) float64 {
	acked := func() (sum int64) {
		for _, s := range senders {
			sum += s.Acked()
		}
		return sum
	}
	eng.RunUntil(from)
	before := acked()
	eng.RunUntil(to)
	return float64(acked()-before) * 8 / (to - from).Seconds() / 1e6
}

// AddCBR starts a paced constant-bit-rate UDP stream through the site —
// the §3 application-limited "video" traffic class — and returns the
// stream plus the receiving sink (whose count measures delivery).
// pktSize is the on-wire packet size in bytes.
func (s *Site) AddCBR(rateBps float64, pktSize int) (*udpapp.CBRStream, *netem.Sink) {
	n := s.net
	src, dst := s.addrs(443)
	n.flowID++
	sink := &netem.Sink{}
	stream := udpapp.NewCBRStream(n.eng, s.egress, src, dst, n.flowID, rateBps, pktSize)
	stream.SetPool(n.Pool)
	n.muxB.Register(dst, sink)
	stream.Start()
	return stream, sink
}

// Traffic configures an open-loop request workload through a site.
type Traffic struct {
	Dist       *workload.SizeDist
	OfferedBps float64
	Requests   int
	// CC names the endhost congestion control (tcp.NewEndhostCC's names).
	CC string
	// FixedCwndSegs, when positive, pins every endhost window (the §7.5
	// idealized proxy).
	FixedCwndSegs int
	// DstPort overrides the flows' destination port (the §7.2 priority
	// experiment classifies on it).
	DstPort uint16
	// Warmup excludes flows arriving before this virtual time from the
	// statistics (they still load the network). Short runs are otherwise
	// dominated by the control loops' convergence transient.
	Warmup sim.Time
	// OracleRate (bits/s) and OracleRTT override the fabric's slowdown
	// normalization for this workload — for sites whose path bottleneck
	// differs from the fabric default. Zero means use the fabric's.
	OracleRate float64
	OracleRTT  sim.Time
	// sketch records completions into bounded quantile sketches instead
	// of exact per-flow slices (see internal/stats/sketch.go): recorder
	// memory becomes independent of the request count, at ≤1 % relative
	// quantile error. Mesh runs with emulated-user background load turn
	// this on.
	sketch bool
}

// openLoop is one RunOpenLoop workload: its arrival process, its
// recorder, and what each arrival needs to start a flow, in one record
// carved from the fabric's slab. It is its arrival process's
// workload.Arrival, so a workload costs no closure.
type openLoop struct {
	arrivals workload.Poisson
	rec      workload.Recorder
	site     *Site
	warmup   sim.Time
	ccName   string
	ccSegs   int
	port     uint16
}

// Arrive implements workload.Arrival: it starts one size-byte flow on a
// recycled connection.
func (l *openLoop) Arrive(size int64) {
	f := l.site.net
	c := f.conn()
	c.rec, c.counted, c.done = &l.rec, f.eng.Now() >= l.warmup, nil
	l.site.startConn(c, size, c.controller(l.ccName, l.ccSegs), l.port)
}

// RunOpenLoop schedules tr.Requests Poisson arrivals through the site and
// returns the recorder that accumulates their completions, with
// tr.Requests as its target. The workload and its recorder are one slot
// of the fabric's slab, and a small recorder's sample buffers come from
// the fabric's arena. Each arrival takes a finished connection off the
// fabric's free list (see conn) and re-initialises its endpoints and
// controller in place, so a steady stream of requests allocates almost
// nothing. The engine is not run; drive it with Fabric.RunUntilDone.
func (s *Site) RunOpenLoop(tr Traffic) *workload.Recorder {
	dist := tr.Dist
	if dist == nil {
		dist = workload.PaperWebCDF()
	}
	rate, rtt := s.net.oracleRate, s.net.oracleRTT
	if tr.OracleRate > 0 {
		rate = tr.OracleRate
	}
	if tr.OracleRTT > 0 {
		rtt = tr.OracleRTT
	}
	l := s.net.loops.New()
	l.rec.Init(rate, rtt)
	l.rec.Requests = tr.Requests
	if tr.sketch {
		l.rec.UseSketch()
	} else if tr.Requests < 1<<20 { // huge counts mean "run until the horizon"
		l.rec.ReserveIn(&s.net.floats, tr.Requests)
	}
	l.site, l.warmup, l.ccName, l.ccSegs, l.port = s, tr.Warmup, tr.CC, tr.FixedCwndSegs, tr.DstPort
	if l.port == 0 {
		l.port = 80
	}
	l.arrivals.Start(s.net.eng, dist, tr.OfferedBps, tr.Requests, l)
	return &l.rec
}

// RunUntilDone advances the engine in one-second steps until every
// recorder in recs is Done or the horizon passes; with no recorders it
// runs to the horizon. It returns the stop time. A run that stops at the
// horizon with a recorder unfinished leaves a note (exp.Note) per live
// sender saying how far it got and why it stalled.
func (f *Fabric) RunUntilDone(horizon sim.Time, recs ...*workload.Recorder) sim.Time {
	for f.eng.Now() < horizon && !allDone(recs) {
		next := f.eng.Now() + sim.Second
		if next > horizon {
			next = horizon
		}
		f.eng.RunUntil(next)
	}
	if len(recs) > 0 && !allDone(recs) {
		f.noteStalls()
	}
	return f.eng.Now()
}

// allDone reports whether recs is non-empty and every recorder is Done.
func allDone(recs []*workload.Recorder) bool {
	for _, r := range recs {
		if !r.Done() {
			return false
		}
	}
	return len(recs) > 0
}

// defaultBundleConfig returns the evaluation's default sendbox setup:
// Copa inner loop with Nimbus detection and SFQ scheduling (§7.1).
func defaultBundleConfig() *bundle.Config {
	return &bundle.Config{Algorithm: "copa"}
}
