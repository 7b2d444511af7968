package pilot

import (
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"time"

	"bundler/internal/bundle"
	"bundler/internal/clock"
	"bundler/internal/exp"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

// Control-channel addresses, fixed on both sides (the pilot runs exactly
// one bundle). ctlHost routes Bundler control messages around the data
// tap, mirroring the scenario fabric's demux wiring.
const ctlHost = 1 << 30

var (
	sbCtl = pkt.Addr{Host: ctlHost, Port: 1}
	rbCtl = pkt.Addr{Host: ctlHost, Port: 2}
)

// hostBase is where per-flow endpoint addresses start.
const hostBase = 1 << 16

// warmup delays the first arrival past process start-up so both clock
// domains are settled; the simulated twin applies the identical offset,
// so it cancels out of every FCT.
const warmup = 200 * clock.Millisecond

// Config parameterizes one pilot run. The zero value plus fill() is a
// small dumbbell that completes in about a second of wall time.
type Config struct {
	Seed       int64
	Rate       float64    // bottleneck bits/s
	RTT        clock.Time // end-to-end propagation RTT
	Requests   int        // number of web-CDF transfers
	OfferedBps float64    // open-loop offered load
	Algorithm  string     // bundle inner-loop controller
	// Horizon bounds the real (or virtual) run time; expiring is an
	// error (flows stuck).
	Horizon time.Duration
}

func (c *Config) fill() {
	if c.Rate == 0 {
		c.Rate = 24e6
	}
	if c.RTT == 0 {
		c.RTT = 40 * clock.Millisecond
	}
	if c.Requests == 0 {
		c.Requests = 60
	}
	if c.OfferedBps == 0 {
		c.OfferedBps = 16e6
	}
	if c.Algorithm == "" {
		c.Algorithm = "copa"
	}
	if c.Horizon == 0 {
		c.Horizon = 60 * time.Second
	}
}

func (c Config) bundleConfig() bundle.Config {
	return bundle.Config{Algorithm: c.Algorithm, DisableTelemetry: true}
}

// params is the cell identity of a pilot or twin result — identical
// across RunSend and RunTwin, so the two results describe one cell.
func (c Config) params() exp.Params {
	return exp.Params{
		"algorithm":    c.Algorithm,
		"rate-mbps":    strconv.FormatFloat(c.Rate/1e6, 'g', -1, 64),
		"rtt-ms":       strconv.FormatFloat(c.RTT.Millis(), 'g', -1, 64),
		"offered-mbps": strconv.FormatFloat(c.OfferedBps/1e6, 'g', -1, 64),
		"requests":     strconv.Itoa(c.Requests),
	}
}

// flowSpec is one precomputed transfer. The whole workload is derived
// from Config.Seed alone, so the send side, the receive side,
// and the simulated twin agree on every arrival time, size, address, and
// flow ID without exchanging a byte.
type flowSpec struct {
	At       clock.Time
	Size     int64
	Src, Dst pkt.Addr
	ID       uint64
}

// flows expands cfg into its deterministic workload: Poisson arrivals at
// the offered load over the paper's web-size CDF, like
// workload.Arrivals, but from a dedicated RNG (never the clock's — a
// wall clock's draw interleaving is not reproducible) and with gaps
// accumulated from nominal arrival times so the list is closed-form.
func flows(cfg Config) []flowSpec {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	dist := workload.PaperWebCDF()
	lambda := cfg.OfferedBps / 8 / dist.Mean()
	specs := make([]flowSpec, cfg.Requests)
	host := uint32(hostBase)
	at := warmup + clock.FromSeconds(rng.ExpFloat64()/lambda)
	for i := range specs {
		specs[i] = flowSpec{
			At:   at,
			Size: dist.Sample(rng),
			Src:  pkt.Addr{Host: host, Port: 5000},
			Dst:  pkt.Addr{Host: host + 1, Port: 80},
			ID:   uint64(i + 1),
		}
		host += 2
		at += clock.FromSeconds(rng.ExpFloat64() / lambda)
	}
	return specs
}

// buildResult renders a recorder into the result schema shared by pilot
// and twin: completed/bytes, which match the twin's to the byte on any
// clock, and the FCT and slowdown quantiles, which real-clock jitter
// moves (bench/layers/pilot reports how far).
func buildResult(cfg Config, rec *workload.Recorder) exp.Result {
	res := exp.Result{Experiment: "pilot-fct", Seed: cfg.Seed, Params: cfg.params()}
	res.AddMetric("completed", float64(rec.Completed), "requests")
	res.AddMetric("bytes", float64(rec.Bytes), "B")
	res.AddMetric("fct-p50", rec.FCTms.Quantile(0.5), "ms")
	res.AddMetric("slowdown-p50", rec.Slowdowns.Quantile(0.5), "")
	res.AddMetric("slowdown-p90", rec.Slowdowns.Quantile(0.9), "")
	return res
}

// sendSide is side A's half of the topology, as wireSend built it.
type sendSide struct {
	// in takes everything arriving from the receive side: endhost ACKs
	// and the Receivebox's congestion ACKs.
	in        *tcp.Mux
	rec       *workload.Recorder
	remaining int // of cfg.Requests flows, those not yet completed
}

// wireSend builds the send side on c: endhost senders, each started at
// its flowSpec arrival, behind a Sendbox whose paced output drains
// through the emulated bottleneck into toB, the hop to the receive side.
// FCTs are measured at the sender. lastDone, if set, runs when the last
// flow completes.
func wireSend(c clock.Clock, cfg Config, toB netem.Receiver, lastDone func()) *sendSide {
	a := &sendSide{in: tcp.NewMux(), rec: workload.NewRecorder(cfg.Rate, cfg.RTT), remaining: cfg.Requests}
	bottleneck := netem.NewLink(c, "bottleneck", cfg.Rate, cfg.RTT/2, qdisc.NewFIFO(netem.BDPBuffer(cfg.Rate, cfg.RTT)), toB)
	sb := bundle.NewSendbox(c, cfg.bundleConfig(), bottleneck, sbCtl, rbCtl)
	a.in.Register(sbCtl, sb)
	for _, f := range flows(cfg) {
		clock.At(c, f.At, func() {
			var snd *tcp.Sender
			snd = tcp.NewSender(c, sb, f.Src, f.Dst, f.ID, f.Size, tcp.NewEndhostCC("cubic"), func(now clock.Time) {
				a.in.Unregister(f.Src)
				a.rec.Record(f.Size, now-snd.StartedAt)
				a.remaining--
				if a.remaining == 0 && lastDone != nil {
					lastDone()
				}
			})
			a.in.Register(f.Src, snd)
			snd.Start()
		})
	}
	return a
}

// wireRecv builds the receive side on c: control messages routed around
// the Receivebox's data tap, receivers for the whole (deterministic)
// workload registered up front — passive until data arrives — and the
// reverse link carrying every ACK into toA, the hop to the send side.
// It returns where traffic from the send side enters.
func wireRecv(c clock.Clock, cfg Config, toA netem.Receiver) netem.Receiver {
	mux := tcp.NewMux()
	reverse := netem.NewReverseLink(c, cfg.RTT, toA)
	rb := bundle.NewReceivebox(c, reverse, rbCtl, sbCtl, 0)
	mux.Register(rbCtl, rb)
	for _, f := range flows(cfg) {
		mux.Register(f.Dst, tcp.NewReceiver(c, reverse, f.Dst, f.Src, f.ID, f.Size, nil))
	}
	tap := netem.NewTap(rb.Observe, mux)
	return netem.ReceiverFunc(func(p *pkt.Packet) {
		// Control messages go straight to the box — the data tap must not
		// observe them (same routing as the scenario fabric's demux).
		if p.Dst.Host == ctlHost {
			mux.Receive(p)
			return
		}
		tap.Receive(p)
	})
}

// RunSend is side A: the send side on a wall clock, its bottleneck
// draining into the UDP socket. It blocks until every flow completes
// (returning the pilot's result) or the horizon expires (an error). conn
// is the local bound socket; peer is side B's address.
func RunSend(cfg Config, conn *net.UDPConn, peer *net.UDPAddr) (exp.Result, error) {
	cfg.fill()
	w := clock.NewWall(cfg.Seed)
	defer w.Close()

	tr := &transport{w: w, conn: conn, peer: peer}
	done := make(chan struct{})
	a := wireSend(w, cfg, tr, func() {
		// Workload drained: tell B it can exit. The DONE datagram is
		// repeated in case the socket drops it.
		tr.SendDone()
		clock.After(w, 50*clock.Millisecond, tr.SendDone)
		clock.After(w, 100*clock.Millisecond, func() {
			tr.SendDone()
			close(done)
		})
	})
	// Everything is wired; open the inbound floodgate last so the reader
	// goroutine observes fully-initialized state.
	tr.deliver = a.in
	go tr.readLoop()

	// The horizon fallback runs on the pilot's own wall clock rather
	// than time.After: one time source for the whole datapath (and
	// clock's TestNoWallClockInSimPackages holds this package to it).
	expired := make(chan struct{})
	clock.After(w, clock.Time(cfg.Horizon), func() { close(expired) })
	select {
	case <-done:
	case <-expired:
		w.Close()
		return exp.Result{}, fmt.Errorf("pilot: send horizon %v expired with %d/%d flows incomplete",
			cfg.Horizon, a.remaining, cfg.Requests)
	}
	// Close stops the clock goroutine; after it returns, a and sendErr
	// are safe to read from here.
	w.Close()
	if tr.sendErr != nil {
		return exp.Result{}, fmt.Errorf("pilot: socket send: %w", tr.sendErr)
	}
	return buildResult(cfg, a.rec), nil
}

// RunRecv is side B: the receive side on a wall clock, its reverse
// link draining into the UDP socket. Blocks until A signals DONE or the
// horizon expires.
func RunRecv(cfg Config, conn *net.UDPConn, peer *net.UDPAddr) error {
	cfg.fill()
	// Seed differs from A's on purpose: nothing on the pilot path may
	// depend on the two sides drawing identical RNG streams.
	w := clock.NewWall(cfg.Seed + 1)
	defer w.Close()

	tr := &transport{w: w, conn: conn, peer: peer}
	tr.deliver = wireRecv(w, cfg, tr)
	done := make(chan struct{})
	tr.onDone = func() { close(done) }
	go tr.readLoop()

	expired := make(chan struct{})
	clock.After(w, clock.Time(cfg.Horizon), func() { close(expired) })
	select {
	case <-done:
	case <-expired:
		return fmt.Errorf("pilot: recv horizon %v expired without DONE", cfg.Horizon)
	}
	w.Close()
	if tr.sendErr != nil {
		return fmt.Errorf("pilot: socket send: %w", tr.sendErr)
	}
	return nil
}
