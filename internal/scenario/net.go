// Package scenario wires complete experiments: the emulated dumbbell (and
// multipath / WAN variants), the Bundler boxes, endhost traffic, and the
// measurement probes each figure of the paper's evaluation (§7–§9) needs.
// Every evaluation figure is one row of the experiment table
// (experiments.go) whose body sits beside its scenario code; the
// registered experiments are invoked by cmd/bundler-bench and by the
// benchmark under bench/.
//
// The reusable endpoint machinery — sender mux, destination demux,
// reverse path, address allocation, nested sites — lives in Fabric; Net
// adds the paper's single-bottleneck dumbbell on top, and internal/topo
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
// reverse path for ACKs and Bundler control messages, and the address /
// flow-ID allocators. The forward path between them — one bottleneck,
// a chain, load-balanced parallel links — is the caller's to wire;
// Net wires the paper's dumbbell, and internal/topo compiles declarative
// configs into arbitrary link graphs over the same fabric. Bundles nest
// (§9) without a second builder: AddSiteIn hangs a site inside another
// site's Bundler pair.
type Fabric struct {
	Eng     *sim.Engine
	MuxA    *tcp.Mux
	Demux   *netem.Demux
	Reverse *netem.Link

	// OracleRate (bits/s) and OracleRTT normalize recorded slowdowns:
	// the unloaded-path parameters of workload.OracleFCT. Traffic can
	// override them per workload.
	OracleRate float64
	OracleRTT  sim.Time

	// Pool, when set, is the partition-local packet pool every endpoint
	// added to this fabric mints from (sharded topologies give each
	// partition its own fabric and pool). Nil means the shared global
	// pool — the legacy single-engine configuration.
	Pool *pkt.Pool

	nextHost  uint32
	nextCtl   uint32
	hostLimit uint32
	ctlLimit  uint32
	flowID    uint64
}

// NewFabric builds the shared endpoint machinery on eng for a path of
// round trip rtt, reverse path included; OracleRTT starts at rtt. The
// caller sets OracleRate before adding sites that record slowdowns.
func NewFabric(eng *sim.Engine, rtt sim.Time) *Fabric {
	muxA := tcp.NewMux()
	return &Fabric{Eng: eng, MuxA: muxA, Demux: netem.NewDemux(),
		Reverse: netem.NewReverseLink(eng, rtt, muxA), OracleRTT: rtt,
		nextHost: 1 << 16, nextCtl: 1 << 30}
}

// SetIDSpace moves the fabric's address and flow-ID allocators into a
// disjoint per-partition region, so a sharded topology can decode which
// partition owns a destination host from the address bits alone (static
// cross-partition routing, no shared maps). Each base gets a 2^19-entry
// region; overflowing it panics. Must be called before any site or flow
// is added. Zero limits (the default) mean the legacy unchecked ranges.
func (f *Fabric) SetIDSpace(hostBase, ctlBase uint32, flowBase uint64) {
	if f.nextHost != 1<<16 || f.nextCtl != 1<<30 || f.flowID != 0 {
		panic("scenario: SetIDSpace after allocation began")
	}
	f.nextHost, f.hostLimit = hostBase, hostBase+1<<19
	f.nextCtl, f.ctlLimit = ctlBase, ctlBase+1<<19
	f.flowID = flowBase
}

// Net is one emulated dumbbell: source sites on the left, a single
// bottleneck link, destination demux on the right, and an uncongested
// reverse path for ACKs and Bundler control messages.
type Net struct {
	Fabric
	Cfg        netConfig
	Bottleneck *netem.Link
}

// newNet builds the dumbbell.
func newNet(cfg netConfig) *Net {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	n := &Net{Fabric: *NewFabric(eng, cfg.RTT), Cfg: cfg}
	n.OracleRate = cfg.LinkRate
	n.Bottleneck = netem.NewLink(eng, "bottleneck", cfg.LinkRate, cfg.RTT/2, cfg.Bottleneck, n.Demux)
	return n
}

// Site is one source-site/destination-site pairing. With a Bundler pair
// attached, its egress is the sendbox and its ingress is tapped by the
// receivebox; otherwise traffic goes straight to the bottleneck.
type Site struct {
	net     *Fabric
	SB      *bundle.Sendbox
	RB      *bundle.Receivebox
	MuxB    *tcp.Mux
	ingress netem.Receiver
	egress  netem.Receiver
	parent  *Site // the enclosing site of a nested one (AddSiteIn)
	// onNewDst observes every destination host allocated for this site's
	// flows. The mesh fabric uses it to teach each source site's
	// MultiSendbox classifier which bundle a destination belongs to.
	onNewDst func(host uint32)
}

// AddSite creates a site pairing whose egress is the dumbbell's
// bottleneck. bcfg nil means no Bundler (status quo).
func (n *Net) AddSite(bcfg *bundle.Config) *Site {
	return n.AddSiteAt(n.Bottleneck, bcfg)
}

// AddSiteAt creates a site pairing that forwards into egress — the head
// of whatever forward path the topology wired there. bcfg nil means no
// Bundler (status quo); otherwise a Sendbox is interposed in front of
// egress and a Receivebox taps the site's ingress.
func (f *Fabric) AddSiteAt(egress netem.Receiver, bcfg *bundle.Config) *Site {
	s := &Site{net: f, MuxB: tcp.NewMux()}
	if bcfg == nil {
		s.ingress = s.MuxB
		s.egress = egress
		return s
	}
	sbCtl := pkt.Addr{Host: f.nextCtl, Port: 1}
	rbCtl := pkt.Addr{Host: f.nextCtl, Port: 2}
	f.nextCtl++
	if f.ctlLimit != 0 && f.nextCtl > f.ctlLimit {
		panic("scenario: control-address region exhausted (SetIDSpace)")
	}
	s.SB = bundle.NewSendbox(f.Eng, *bcfg, egress, sbCtl, rbCtl)
	s.SB.SetPool(f.Pool)
	s.RB = bundle.NewReceivebox(f.Eng, f.Reverse, rbCtl, sbCtl, 0)
	s.RB.SetPool(f.Pool)
	f.MuxA.Register(sbCtl, s.SB)
	s.MuxB.Register(rbCtl, s.RB)
	f.Demux.Route(rbCtl.Host, s.MuxB) // epoch updates reach the receivebox
	s.ingress = netem.NewTap(s.RB.Observe, s.MuxB)
	s.egress = s.SB
	return s
}

// AddSiteIn nests a site inside parent, which must have a Bundler pair
// (§9: department bundles inside an institute bundle). The new site
// forwards into parent's sendbox, and every enclosing receivebox, the
// outermost first, observes its traffic before its own receivebox does.
// Membership is the demux route its flows install, as for any site;
// control addresses bypass the taps. bcfg nil nests a plain member host.
func (f *Fabric) AddSiteIn(parent *Site, bcfg *bundle.Config) *Site {
	if parent.RB == nil {
		panic("scenario: AddSiteIn needs a parent with a Bundler pair")
	}
	s := f.AddSiteAt(parent.egress, bcfg)
	s.parent = parent
	for p := parent; p != nil; p = p.parent {
		s.ingress = netem.NewTap(p.RB.Observe, s.ingress)
	}
	return s
}

// bundleConfig is the Sendbox configuration for inner-loop algorithm alg
// behind the scheduler sched names (qdisc.Parse's grammar), depth packets
// deep. Alg "" is no Bundler at all — the nil that AddSite reads as
// status quo — so a with/without comparison is a loop over alg values.
func (n *Net) bundleConfig(alg, sched string, depth int) *bundle.Config {
	if alg == "" {
		return nil
	}
	return &bundle.Config{Algorithm: alg, Scheduler: SchedulerByName(n.Eng, sched, depth)}
}

// Stop halts the site's Bundler control loop, if it has one.
func (s *Site) Stop() {
	if s.SB != nil {
		s.SB.Stop()
	}
}

// addrs allocates a fresh (source, destination) address pair and routes
// the destination host into the site's ingress.
func (s *Site) addrs(dstPort uint16) (src, dst pkt.Addr) {
	n := s.net
	src = pkt.Addr{Host: n.nextHost, Port: 5000}
	n.nextHost++
	dst = pkt.Addr{Host: n.nextHost, Port: dstPort}
	n.nextHost++
	if n.hostLimit != 0 && n.nextHost > n.hostLimit {
		panic("scenario: host-address region exhausted (SetIDSpace)")
	}
	n.Demux.Route(dst.Host, s.ingress)
	if s.onNewDst != nil {
		s.onNewDst(dst.Host)
	}
	return src, dst
}

// AddFlow starts a size-byte transfer through the site at the current
// virtual time. done (optional) receives the flow's completion time, as
// observed at the receiver (last byte arrival). Endpoint addresses are
// recycled on completion so long experiments keep the muxes small.
func (s *Site) AddFlow(size int64, cc tcp.Congestion, done func(size int64, fct sim.Time)) *tcp.Sender {
	return s.AddFlowPort(size, cc, 80, done)
}

// AddFlowPort is AddFlow with an explicit destination port, which the
// §7.2 priority experiment uses as its traffic-class marker.
func (s *Site) AddFlowPort(size int64, cc tcp.Congestion, dstPort uint16, done func(size int64, fct sim.Time)) *tcp.Sender {
	n := s.net
	src, dst := s.addrs(dstPort)
	n.flowID++
	id := n.flowID
	start := n.Eng.Now()
	var snd *tcp.Sender
	rcv := tcp.NewReceiver(n.Eng, n.Reverse, dst, src, id, size, func(now sim.Time) {
		if done != nil {
			done(size, now-start)
		}
	})
	rcv.SetPool(n.Pool)
	snd = tcp.NewSender(n.Eng, s.egress, src, dst, id, size, cc, func(now sim.Time) {
		// Sender-side completion: both directions are finished; recycle.
		n.MuxA.Unregister(src)
		s.MuxB.Unregister(dst)
	})
	snd.SetPool(n.Pool)
	n.MuxA.Register(src, snd)
	s.MuxB.Register(dst, rcv)
	snd.Start()
	return snd
}

// AddPing starts a closed-loop UDP request/response pair through the site
// (the §8 latency probe) and returns the client for RTT inspection.
func (s *Site) AddPing() *udpapp.PingClient {
	n := s.net
	src, dst := s.addrs(7)
	n.flowID++
	client := udpapp.NewPingClient(n.Eng, s.egress, src, dst, n.flowID)
	client.SetPool(n.Pool)
	server := udpapp.NewPingServer(n.Eng, n.Reverse, dst)
	server.SetPool(n.Pool)
	n.MuxA.Register(src, client)
	s.MuxB.Register(dst, server)
	client.Start()
	return client
}

// AddPings starts n latency probes through the site.
func (s *Site) AddPings(n int) []*udpapp.PingClient {
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
	stream := udpapp.NewCBRStream(n.Eng, s.egress, src, dst, n.flowID, rateBps, pktSize)
	stream.SetPool(n.Pool)
	s.MuxB.Register(dst, sink)
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
	// Sketch records completions into bounded quantile sketches instead
	// of exact per-flow slices (see internal/stats/sketch.go): recorder
	// memory becomes independent of the request count, at ≤1 % relative
	// quantile error. Mesh runs with emulated-user background load turn
	// this on.
	Sketch bool
}

func (t *Traffic) cc() tcp.Congestion {
	if t.FixedCwndSegs > 0 {
		return tcp.NewFixedCwnd(t.FixedCwndSegs)
	}
	return tcp.NewEndhostCC(t.CC)
}

// RunOpenLoop schedules tr.Requests Poisson arrivals through the site and
// returns the recorder that accumulates their completions. The engine is
// not run; drive it with Net.RunUntilDone.
func (s *Site) RunOpenLoop(tr Traffic) *workload.Recorder {
	if tr.Dist == nil {
		tr.Dist = workload.PaperWebCDF()
	}
	rate, rtt := s.net.OracleRate, s.net.OracleRTT
	if tr.OracleRate > 0 {
		rate = tr.OracleRate
	}
	if tr.OracleRTT > 0 {
		rtt = tr.OracleRTT
	}
	rec := workload.NewRecorder(rate, rtt)
	if tr.Sketch {
		rec.UseSketch()
	} else if tr.Requests < 1<<20 { // huge counts mean "run until the horizon"
		rec.Reserve(tr.Requests)
	}
	port := tr.DstPort
	if port == 0 {
		port = 80
	}
	workload.Arrivals(s.net.Eng, tr.Dist, tr.OfferedBps, tr.Requests, func(size int64) {
		if s.net.Eng.Now() < tr.Warmup {
			s.AddFlowPort(size, tr.cc(), port, func(int64, sim.Time) {
				rec.RecordUncounted()
			})
			return
		}
		s.AddFlowPort(size, tr.cc(), port, func(sz int64, fct sim.Time) {
			rec.Record(sz, fct)
		})
	})
	return rec
}

// RunUntilDone advances the engine in one-second steps until check reports
// true or the horizon passes. It returns the stop time.
func (f *Fabric) RunUntilDone(horizon sim.Time, check func() bool) sim.Time {
	for f.Eng.Now() < horizon {
		if check != nil && check() {
			break
		}
		next := f.Eng.Now() + sim.Second
		if next > horizon {
			next = horizon
		}
		f.Eng.RunUntil(next)
	}
	return f.Eng.Now()
}

// defaultBundleConfig returns the evaluation's default sendbox setup:
// Copa inner loop with Nimbus detection and SFQ scheduling (§7.1).
func defaultBundleConfig() *bundle.Config {
	return &bundle.Config{Algorithm: "copa"}
}
