// Package bundle implements the paper's contribution: the Bundler
// middlebox pair. A Sendbox at the source site paces and schedules the
// site's egress traffic at a rate computed by an inner congestion-control
// loop; a Receivebox at the destination site observes arriving traffic and
// returns out-of-band congestion ACKs. Rate-limiting the bundle at the
// delay-controlled rate moves the bottleneck queue from the network into
// the sendbox, where the operator's scheduling policy (SFQ, FQ-CoDel,
// priorities, ...) can act on it.
//
// The measurement machinery follows §4.5: both boxes hash each packet's
// header subset with FNV-1a; packets whose hash is ≡ 0 modulo the epoch
// size are epoch boundaries. The receivebox sends a congestion ACK
// carrying the boundary's hash and the bundle's cumulative received bytes;
// the sendbox matches it against recorded send state to compute RTT, send
// rate, and receive rate, averaged over a sliding window of about one RTT.
// The epoch size adapts to ¼·minRTT·send_rate and is rounded down to a
// power of two so stale receivebox epochs stay strict sub/supersets.
//
// All rates (pacing, measured send/receive) are bits/second; byte counts
// are int64 bytes; every timer and timestamp is clock.Time.
package bundle

import (
	"math"
	"math/bits"

	"bundler/internal/ccalg"
	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/stats"
)

// CtlPacketSize is the on-wire size of a control message (a small UDP
// datagram in the prototype). The two messages, the congestion ACK
// (pkt.CtlAck) and the epoch-size update (pkt.CtlEpochUpdate), travel
// inline in the packet's Ctl and CtlArg fields.
const CtlPacketSize = 60

// Mode is the sendbox's operating mode (§5).
type Mode int

// Sendbox modes.
const (
	// ModeDelayControl is normal operation: the inner loop's delay-based
	// rate moves the bottleneck queue into the sendbox.
	ModeDelayControl Mode = iota
	// ModePassThrough engages when buffer-filling cross traffic is
	// detected: traffic passes at a PI-controlled rate that holds a small
	// standing sendbox queue (the Nimbus up-pulse budget, §5.1).
	ModePassThrough
	// ModeDisabled engages when imbalanced multipath is detected (§5.2):
	// rate control is released entirely, reverting to the status quo.
	ModeDisabled
)

func (m Mode) String() string {
	if m < 0 || int(m) >= len(modes) {
		return "unknown"
	}
	return modes[m].name
}

// pulseWhen says when a mode adds the Nimbus pulses to its rate: only
// while the detector window's mean cross traffic reaches 5 % of μ, on
// every tick, or never.
type pulseWhen int

const (
	pulseWithCross pulseWhen = iota
	pulseAlways
	pulseNever
)

// modes is the §5 control law, one row per Mode, that the control tick
// reads: the mode's name; its pacing rate before pulses and floors; the
// share of the smoothed arrival rate that rate never drops below; when
// pulses apply; and the share of μ the window's mean cross traffic must
// reach for an elasticity vote cast in the mode to say "elastic".
// modeRules says when the mode changes.
var modes = [...]struct {
	name        string
	rate        func(s *Sendbox, now clock.Time) float64
	demandFloor float64
	pulses      pulseWhen
	voteGate    float64
}{
	// Delay controllers back off against any queue, including ones they
	// did not create (short cross-traffic bursts that vanish on their
	// own); the demand floor keeps a transient foreign queue from
	// starving the bundle. Pulses exist to classify cross traffic: with a
	// negligible share there is nothing to classify, and every down-pulse
	// idles the bottleneck. Aggregate send rates swing more than a single
	// Nimbus flow's, and pulses leak into the cross-traffic estimate
	// whenever the bottleneck runs empty; the 20 % gate rejects that
	// self-signal.
	ModeDelayControl: {"delay-control", func(s *Sendbox, now clock.Time) float64 { return s.alg.Rate(now) }, 0.3, pulseWithCross, 0.2},
	// "Let the traffic pass": the PI may throttle to build its 10 ms
	// pulse budget, but never much below the endhosts' demand — a queue
	// target must not become a choke point when arrivals dip. Pulses
	// always run: detecting the buffer-filler's departure is the whole
	// point of the maintained queue (§5.1). The gate is asymmetric: while
	// competing fairly, the cross traffic's share shrinks, and requiring
	// the full entry magnitude to *stay* would flap between modes.
	ModePassThrough: {"pass-through", func(s *Sendbox, now clock.Time) float64 { return s.pi.Update(s.QueueDelay(), s.mu(), now) }, 0.8, pulseAlways, 0.05},
	// Effectively unlimited: the status quo.
	ModeDisabled: {"disabled", func(*Sendbox, clock.Time) float64 { return 1e11 }, 0, pulseNever, 0},
}

// Config parameterizes a Sendbox.
type Config struct {
	// Algorithm names the inner-loop controller, one of ccalg.Names;
	// "" is Copa.
	Algorithm string
	// Scheduler is the qdisc applied to the bundle's queue at the
	// sendbox. Defaults to SFQ with 1024 buckets and a 1000-packet cap.
	Scheduler qdisc.Qdisc
	// ExactEpochSize disables the power-of-two rounding of N (§4.5) for
	// the ablation benchmark: without rounding, a delayed or lost
	// epoch-size update leaves the two boxes sampling incomparable sets.
	ExactEpochSize bool
	// MeasurementWindowRTTs scales the sliding measurement window
	// (default 1 RTT per §4.5); the ablation benchmark compares against
	// single-epoch operation (a small fraction).
	MeasurementWindowRTTs float64
	// TunnelMode switches epoch identification from header hashing to an
	// explicit encapsulation header (§4.5's IPv6-capable alternative):
	// the sendbox wraps every packet (+TunnelOverhead bytes on the wire),
	// marks exactly every N-th with a unique sequence number, and the
	// receivebox echoes markers instead of hashing. Deterministic
	// spacing, no hash collisions, no IP-ID dependence — at the cost of
	// per-packet overhead and the loss of transparent fail-open.
	TunnelMode bool
	// DisableTelemetry has no effect: the box records no trace series.
	// Observers use OnEpochSample and Rate instead. The field stays so
	// that configurations which set it still compile.
	DisableTelemetry bool
}

func (c *Config) fillDefaults() {
	if c.Scheduler == nil {
		// Linux SFQ defaults to a 127-packet limit; the prototype's TBF
		// inner qdisc is similarly shallow. A modestly larger default
		// keeps per-flow scheduling headroom without inflating endhost
		// RTTs by hundreds of milliseconds.
		c.Scheduler = qdisc.NewSFQ(1024, 1000)
	}
	if c.MeasurementWindowRTTs == 0 {
		c.MeasurementWindowRTTs = 1
	}
}

// boundary is the sendbox's record of one epoch boundary packet, keyed
// by its hash in the boundary table. A zero seq means "no record": the
// sequence counter starts at 1.
type boundary struct {
	seq       uint64 // dequeue order
	tsent     clock.Time
	bytesSent int64
}

// epochMeasurement is one matched (boundary, congestion-ACK) sample.
type epochMeasurement struct {
	at       clock.Time
	rtt      clock.Time
	sendRate float64
	recvRate float64
}

// ackPoint is one congestion-ACK arrival, kept for multi-epoch rate
// computation.
type ackPoint struct {
	at    clock.Time
	bytes int64
}

const (
	// oooWindowSize is the sliding window (in congestion ACKs) over which
	// the out-of-order fraction is computed.
	oooWindowSize = 256
	// oooThreshold is the out-of-order fraction above which multipath
	// imbalance is declared (§7.6 determines 5 %).
	oooThreshold float64 = 0.05
	// initialRate seeds the pacer, and stands in for the capacity
	// estimate, before the first measurement (bits/s).
	initialRate float64 = 10e6
	// controlInterval is the CCP invocation cadence (§6.2).
	controlInterval clock.Time = 10 * clock.Millisecond
	// initialEpochN is the epoch size, in packets (a power of two), both
	// boxes start from before the first epoch-size update.
	initialEpochN uint64 = 16
)

// Sendbox is the source-site Bundler box. It implements netem.Receiver:
// feed it the site's egress packets (and the receivebox's control
// messages returning on the reverse path).
type Sendbox struct {
	eng        clock.Clock
	cfg        Config
	link       netem.Link // the pacer
	downstream netem.Receiver
	ctlAddr    pkt.Addr
	peerCtl    pkt.Addr

	// Inner loop. alg points at copa when the configured algorithm is
	// Copa, the evaluation's default, so that box needs no allocation.
	alg      ccalg.Alg
	copa     ccalg.Copa
	pulser   ccalg.Pulser
	detector ccalg.Detector
	pi       ccalg.PIController
	mode     Mode

	// Epoch/measurement state.
	epochN        uint64
	boundaries    map[uint64]boundary // nil until the first boundary
	boundaryOrder sim.FIFO[uint64]    // the recorded hashes, oldest first
	seqCounter    uint64
	maxAckedSeq   uint64
	bytesDequeued int64
	pktsDequeued  int64
	bytesIn       int64
	lastBytesIn   int64
	arrivalEwma   float64 // smoothed bundle arrival rate, bits/s

	lastAcked      boundary
	lastAckArrival clock.Time
	lastBytesRcvd  int64
	ackHistory     sim.FIFO[ackPoint] // the last 8 ACK arrivals, for multi-epoch rates

	window     []epochMeasurement
	minRTT     clock.Time
	latestRTT  clock.Time
	muFilter   stats.MaxFilter
	muSmooth   float64
	lastEpochZ float64

	oooRing  [oooWindowSize]bool
	oooNext  int
	oooCount int
	oooTotal int

	// The last 20 elasticity votes (2 s of them), newest in bit 0, and
	// how many have been cast since the last mode change, up to 20.
	elasticVotes  uint32
	nVotes        int
	lastDetectAt  clock.Time
	modeChangedAt clock.Time
	dqEwma        float64 // smoothed in-network queueing delay, seconds
	xcEwma        float64 // smoothed cross-traffic estimate, bits/s
	starvedSince  clock.Time
	ipid          uint16
	ticker        clock.Ticker
	pool          *pkt.Pool

	// OnEpochSample, when set, observes every matched congestion ACK
	// after its rate computation: the boundary's hash, the RTT sample,
	// the arrival time, and the receive rate (bits/s) the ACK added to
	// the measurement window, or NaN if it added none. The Figure 5/6
	// microbenchmark pairs these against per-packet ground truth
	// recorded at the emulated bottleneck.
	OnEpochSample func(hash uint64, rtt, at clock.Time, recvRate float64)

	// AcksMatched and AcksSpurious count the congestion ACKs that did
	// and did not match a recorded boundary.
	AcksMatched  int
	AcksSpurious int
}

// NewSendbox builds the source-site box. Packets it forwards are paced
// through cfg.Scheduler and handed to downstream (the first hop of the WAN
// path). ctlAddr is this box's control-plane address (congestion ACKs are
// sent to it); peerCtl is the receivebox's control address for epoch-size
// updates.
func NewSendbox(eng clock.Clock, cfg Config, downstream netem.Receiver, ctlAddr, peerCtl pkt.Addr) *Sendbox {
	s := new(Sendbox)
	s.Init(eng, cfg, downstream, ctlAddr, peerCtl)
	return s
}

// Init builds NewSendbox's box in place, in a zero Sendbox that its
// owner carves from a slab. The box holds its pacer link and a Copa
// inner loop by value and hooks itself into both the link and the
// clock without a bound method value, so the box costs no allocation
// of its own past the scheduler it is given. It points into itself and
// must not be copied afterwards.
func (s *Sendbox) Init(eng clock.Clock, cfg Config, downstream netem.Receiver, ctlAddr, peerCtl pkt.Addr) {
	cfg.fillDefaults()
	*s = Sendbox{
		eng:        eng,
		cfg:        cfg,
		downstream: downstream,
		ctlAddr:    ctlAddr,
		peerCtl:    peerCtl,
		pulser:     *ccalg.NewPulser(),
		pi:         *ccalg.NewPIController(),
		epochN:     initialEpochN,
	}
	s.alg = ccalg.NewIn(cfg.Algorithm, &s.copa)
	s.detector = *ccalg.NewDetector(s.pulser.Frequency(), 1/controlInterval.Seconds())
	// The pacer is a link whose qdisc is the operator's scheduler; its
	// rate is rewritten by the control loop, exactly like the patched TBF
	// in the prototype (§6.1).
	s.link.Init(eng, "sendbox-pacer", initialRate, 0, cfg.Scheduler, downstream)
	s.link.OnTransmitted((*pacerHook)(s))
	s.ticker = eng.CallEvery(controlInterval, sendboxTick, s, nil)
}

// pacerHook is the box seen as its pacer's OnTransmitted observer.
type pacerHook Sendbox

// Observe implements netem.Observer.
func (h *pacerHook) Observe(p *pkt.Packet) { (*Sendbox)(h).onTransmitted(p) }

// sendboxTick runs the control tick of the box in a0.
func sendboxTick(a0, _ any) { a0.(*Sendbox).controlTick() }

// SetPool makes the box mint control packets from a partition-local
// pool (nil keeps the shared global pool).
func (s *Sendbox) SetPool(pl *pkt.Pool) { s.pool = pl }

// Receive implements netem.Receiver. Control messages addressed to the
// box are consumed (and released); everything else enters the bundle's
// paced queue.
func (s *Sendbox) Receive(p *pkt.Packet) {
	if p.Proto == pkt.ProtoCtl && p.Dst == s.ctlAddr {
		if p.Ctl == pkt.CtlAck {
			s.onCtlAck(p.CtlArg[0], int64(p.CtlArg[1]))
		}
		pkt.Put(p)
		return
	}
	s.bytesIn += int64(p.Size)
	if s.cfg.TunnelMode {
		p.Tunneled = true
		p.TunnelSeq = 0
		p.Size += pkt.TunnelOverhead
	}
	s.link.Receive(p)
}

// onTransmitted runs as each packet finishes serializing out of the
// sendbox: this is where epoch boundaries are recorded, because tsent must
// exclude both the sendbox's queueing delay and the packet's own
// serialization time (which balloons at low pacing rates and would read as
// phantom network queueing).
func (s *Sendbox) onTransmitted(p *pkt.Packet) {
	if p.Proto == pkt.ProtoCtl {
		return
	}
	s.bytesDequeued += int64(p.Size)
	s.pktsDequeued++
	var h uint64
	if s.cfg.TunnelMode {
		// Deterministic marking: exactly every N-th packet, identified by
		// a unique sequence number carried in the encapsulation header.
		if uint64(s.pktsDequeued)%s.epochN != 0 {
			return
		}
		s.seqCounter++
		h = s.seqCounter
		p.TunnelSeq = h
	} else {
		h = pkt.EpochHash(p)
		if h%s.epochN != 0 {
			return
		}
		s.seqCounter++
	}
	s.evictStaleBoundaries()
	if _, dup := s.boundaries[h]; !dup {
		if s.boundaries == nil {
			s.boundaries = make(map[uint64]boundary)
		}
		s.boundaries[h] = boundary{seq: s.seqCounter, tsent: s.eng.Now(), bytesSent: s.bytesDequeued}
		s.boundaryOrder.Push(h)
		// Bound state: Bundler keeps no per-flow state, and its boundary
		// table is bounded too.
		if s.boundaryOrder.Len() > 4096 {
			delete(s.boundaries, s.boundaryOrder.Pop())
		}
	}
}

// evictStaleBoundaries drops records whose congestion ACK can no longer
// plausibly arrive. Staleness matters beyond memory: the IP ID field wraps
// every 2^16 packets per flow, so a record that lingers past the wrap
// period (≈8 s for one flow at 96 Mbit/s) can be matched by a *different*
// packet's ACK, yielding a garbage RTT and a phantom reordering signal.
func (s *Sendbox) evictStaleBoundaries() {
	cutoff := s.eng.Now() - max(8*s.latestRTT, clock.Second)
	for s.boundaryOrder.Len() > 0 {
		h := s.boundaryOrder.Peek()
		if b, ok := s.boundaries[h]; ok && b.tsent >= cutoff {
			break
		}
		delete(s.boundaries, s.boundaryOrder.Pop())
	}
}

// onCtlAck matches a congestion ACK, the boundary hash it answers and
// the bundle bytes received so far, against recorded boundaries and
// produces one epoch measurement (Figure 4).
func (s *Sendbox) onCtlAck(hash uint64, bytesRcvd int64) {
	now := s.eng.Now()
	b, ok := s.boundaries[hash]
	if !ok {
		// Receivebox sampled a superset (stale, smaller epoch size) or
		// the record aged out: ignore, per §4.5.
		s.AcksSpurious++
		return
	}
	delete(s.boundaries, hash)
	s.AcksMatched++

	// Out-of-order tracking (§5.2): congestion ACKs should arrive in the
	// order their boundaries were sent.
	ooo := b.seq < s.maxAckedSeq
	if !ooo {
		s.maxAckedSeq = b.seq
	}
	s.recordOOO(ooo)

	rtt := now - b.tsent
	if s.minRTT == 0 || rtt < s.minRTT {
		s.minRTT = rtt
	}
	s.latestRTT = rtt

	recvRate := math.NaN()
	prev := s.lastAcked
	if prev.seq != 0 && b.seq > prev.seq && b.tsent > prev.tsent && now > s.lastAckArrival {
		sendRate := float64(b.bytesSent-prev.bytesSent) * 8 / (b.tsent - prev.tsent).Seconds()
		rcv := float64(bytesRcvd-s.lastBytesRcvd) * 8 / (now - s.lastAckArrival).Seconds()
		if rcv >= 0 && sendRate >= 0 {
			recvRate = rcv
			s.window = append(s.window, epochMeasurement{at: now, rtt: rtt, sendRate: sendRate, recvRate: recvRate})
			// Capacity samples span several epochs: a single inter-ACK
			// gap is at the mercy of reverse-path jitter (a compressed
			// gap reads as a rate far above the line rate, and a
			// max-filter would lock onto it).
			s.ackHistory.Push(ackPoint{at: now, bytes: bytesRcvd})
			if s.ackHistory.Len() > 8 {
				s.ackHistory.Pop()
			}
			if h := s.ackHistory.Items(); len(h) >= 5 {
				first, last := h[0], h[len(h)-1]
				if last.at > first.at {
					muSample := float64(last.bytes-first.bytes) * 8 / (last.at - first.at).Seconds()
					s.muFilter.Update(now, muSample, 10*clock.Second)
				}
			}
			// Instantaneous cross-traffic estimate from this epoch pair.
			// The detector needs per-epoch resolution: averaging over an
			// RTT window would smear the 5 Hz pulse response whenever
			// buffer-filling cross traffic inflates the RTT beyond the
			// pulse period.
			s.lastEpochZ = ccalg.CrossTrafficRate(ccalg.Measurement{
				RTT: rtt, MinRTT: s.minRTT,
				SendRate: sendRate, RecvRate: recvRate, Mu: s.mu(),
			})
		}
	}
	if s.OnEpochSample != nil {
		s.OnEpochSample(hash, rtt, now, recvRate)
	}
	if b.seq > prev.seq {
		s.lastAcked = b
		s.lastAckArrival = now
		s.lastBytesRcvd = bytesRcvd
	}

	s.maybeUpdateEpochSize()
}

func (s *Sendbox) recordOOO(ooo bool) {
	if s.oooTotal >= oooWindowSize {
		if s.oooRing[s.oooNext] {
			s.oooCount--
		}
	} else {
		s.oooTotal++
	}
	s.oooRing[s.oooNext] = ooo
	if ooo {
		s.oooCount++
	}
	s.oooNext = (s.oooNext + 1) % oooWindowSize
}

// OOOFraction reports the out-of-order fraction over the recent window.
func (s *Sendbox) OOOFraction() float64 {
	if s.oooTotal == 0 {
		return 0
	}
	return float64(s.oooCount) / float64(s.oooTotal)
}

// maybeUpdateEpochSize recomputes N = ¼·minRTT·send_rate (in packets),
// rounded down to a power of two, and notifies the receivebox on change.
func (s *Sendbox) maybeUpdateEpochSize() {
	if s.minRTT == 0 || s.pktsDequeued == 0 {
		return
	}
	m, ok := s.Measurement()
	if !ok || m.SendRate <= 0 {
		return
	}
	avgPkt := float64(s.bytesDequeued) / float64(s.pktsDequeued)
	pps := m.SendRate / 8 / avgPkt
	target := 0.25 * s.minRTT.Seconds() * pps
	var n uint64
	if s.cfg.ExactEpochSize {
		// Ablation: no rounding. Sub/superset resilience across
		// epoch-size updates is lost.
		n = max(uint64(target), 1)
	} else {
		n = floorPow2(target)
	}
	if n == s.epochN {
		return
	}
	s.epochN = n
	// The update travels out-of-band. Control-plane messages bypass the
	// bundle's own pacer (they originate from the box, not from bundled
	// traffic) and enter the WAN path directly.
	s.downstream.Receive(newCtlPacket(s.pool, &s.ipid, s.ctlAddr, s.peerCtl, pkt.CtlEpochUpdate, n, 0))
}

// newCtlPacket mints control message kind, with arguments a0 and a1,
// from src to dst with the next IP ID from the sending box's counter.
func newCtlPacket(pl *pkt.Pool, ipid *uint16, src, dst pkt.Addr, kind pkt.CtlKind, a0, a1 uint64) *pkt.Packet {
	*ipid++
	p := pl.Get()
	p.IPID = *ipid
	p.Src = src
	p.Dst = dst
	p.Proto = pkt.ProtoCtl
	p.Size = CtlPacketSize
	p.Ctl = kind
	p.CtlArg = [2]uint64{a0, a1}
	return p
}

func floorPow2(x float64) uint64 {
	if x < 1 {
		return 1
	}
	n := uint64(1)
	for n*2 <= uint64(x) && n < 1<<20 {
		n *= 2
	}
	return n
}

// Measurement averages the epoch window spanning the last RTT, the
// input of every control tick. It reports false while the window is
// empty.
func (s *Sendbox) Measurement() (ccalg.Measurement, bool) {
	now := s.eng.Now()
	w := s.cfg.MeasurementWindowRTTs
	cutoff := now - max(clock.Time(float64(s.latestRTT)*w), clock.Time(float64(50*clock.Millisecond)*w), 10*clock.Millisecond)
	keep := s.window[:0]
	for _, e := range s.window {
		if e.at >= cutoff {
			keep = append(keep, e)
		}
	}
	s.window = keep
	if len(s.window) == 0 {
		return ccalg.Measurement{}, false
	}
	var m ccalg.Measurement
	var rttSum clock.Time
	for _, e := range s.window {
		rttSum += e.rtt
		m.SendRate += e.sendRate
		m.RecvRate += e.recvRate
	}
	n := float64(len(s.window))
	m.RTT = rttSum / clock.Time(len(s.window))
	m.SendRate /= n
	m.RecvRate /= n
	m.MinRTT = s.minRTT
	m.Mu = s.mu()
	m.LatestRTT = s.window[len(s.window)-1].rtt
	return m, true
}

// controlTick is the 10 ms CCP invocation (§6.2): feed the algorithm the
// windowed measurement, run detection, and set the pacing rate.
func (s *Sendbox) controlTick() {
	now := s.eng.Now()
	s.decayMu()
	m, ok := s.Measurement()
	if ok {
		s.alg.OnMeasurement(m, now)
		// Smoothed congestion state for the mode machine (~1 s constant).
		dq := max((m.RTT - s.minRTT).Seconds(), 0)
		s.dqEwma = 0.99*s.dqEwma + 0.01*dq
		s.xcEwma = 0.99*s.xcEwma + 0.01*ccalg.CrossTrafficRate(m)
	}
	if s.AcksMatched > 0 {
		// Zero-order hold of the most recent per-epoch estimate.
		s.detector.AddSample(s.lastEpochZ)
	}
	s.updateMode(ok, now)

	// Smoothed bundle arrival rate (the endhosts' aggregate demand).
	in := float64(s.bytesIn-s.lastBytesIn) * 8 / controlInterval.Seconds()
	s.lastBytesIn = s.bytesIn
	s.arrivalEwma = 0.95*s.arrivalEwma + 0.05*in

	row := &modes[s.mode]
	rate := row.rate(s, now)
	if floor := row.demandFloor * s.arrivalEwma; rate < floor {
		rate = floor
	}
	if row.pulses == pulseAlways || row.pulses == pulseWithCross && s.detector.WindowMean() >= 0.05*s.mu() {
		rate += s.pulser.Offset(now, s.mu())
	}
	// Floor the pacing rate: a bundle must always retain enough rate to
	// keep the measurement loop alive (one packet per few RTTs would
	// stall recovery entirely).
	if floor := 0.02 * s.mu(); rate < floor {
		rate = floor
	}
	if rate < 100e3 {
		rate = 100e3
	}
	s.link.SetRate(rate)
}

// mu returns the capacity estimate: the windowed max of measured receive
// rates, floored by a slowly decaying envelope. The envelope matters when
// the bundle itself is the only load: a throttled bundle measures only its
// own (reduced) receive rate, and a bare max-filter would let the capacity
// estimate chase it downward — a self-reinforcing collapse.
func (s *Sendbox) mu() float64 {
	mu := s.muFilter.Get()
	if s.muSmooth > mu {
		mu = s.muSmooth
	}
	if mu <= 0 {
		mu = initialRate
	}
	return mu
}

// decayMu advances the envelope once per control tick (≈5 %/second).
func (s *Sendbox) decayMu() {
	if v := s.muFilter.Get(); v > s.muSmooth {
		s.muSmooth = v
	} else {
		s.muSmooth *= 0.9995
	}
}

// modeRules are the §5 mode changes, in priority order: multipath
// imbalance dominates; otherwise starvation and elasticity votes flip
// between delay control and pass-through. updateMode takes the first rule
// whose from is the current mode and whose guard fires. A guard may
// update the state it reads (the starvation clock, the votes), so the
// order of the rules is part of the policy.
var modeRules = [...]struct {
	from, to Mode
	guard    func(s *Sendbox, haveMeas bool, now clock.Time) bool
}{
	{ModeDelayControl, ModeDisabled, (*Sendbox).multipathImbalanced},
	{ModePassThrough, ModeDisabled, (*Sendbox).multipathImbalanced},
	{ModeDisabled, ModeDelayControl, (*Sendbox).multipathCleared},
	{ModeDelayControl, ModePassThrough, (*Sendbox).starved},
	{ModeDelayControl, ModePassThrough, (*Sendbox).elasticEntry},
	{ModePassThrough, ModeDelayControl, (*Sendbox).elasticExit},
}

// updateMode runs the §5 state machine once: the first rule that fires
// changes the mode. Entering pass-through restarts the PI controller from
// the current rate; every change restarts the dwell clock, the votes and
// the starvation clock.
func (s *Sendbox) updateMode(haveMeas bool, now clock.Time) {
	for _, r := range modeRules {
		if r.from == s.mode && r.guard(s, haveMeas, now) {
			if r.to == ModePassThrough {
				s.pi.Reset(s.link.Rate(), now)
			}
			s.mode, s.modeChangedAt, s.elasticVotes, s.nVotes, s.starvedSince = r.to, now, 0, 0, 0
			return
		}
	}
}

// multipathImbalanced fires when more than 5 % of at least 32 congestion
// ACKs arrived out of order (§5.2).
func (s *Sendbox) multipathImbalanced(bool, clock.Time) bool {
	return s.oooTotal >= 32 && s.OOOFraction() > oooThreshold
}

// multipathCleared fires once the out-of-order fraction of at least 32
// ACKs has fallen below a quarter of the threshold, 5 s after disabling.
func (s *Sendbox) multipathCleared(_ bool, now clock.Time) bool {
	return s.oooTotal >= 32 && s.OOOFraction() < oooThreshold/4 && now-s.modeChangedAt > 5*clock.Second
}

// starved is the starvation fallback, §3's litmus test applied directly:
// when the delay controller is pinned at its floor while cross traffic
// owns the bottleneck (huge standing queue, dominant cross share),
// competing via the endhost loops is the only sensible action. It fires
// after 2 s of starving in delay control: every mode change restarts that
// clock, so a starvation that began before a pass-through stint does not
// count after it.
func (s *Sendbox) starved(haveMeas bool, now clock.Time) bool {
	if !haveMeas {
		return false
	}
	mu := s.mu()
	starved := s.link.Rate() <= 0.1*mu && s.xcEwma >= 0.5*mu &&
		s.dqEwma > 4*s.pi.Target.Seconds()
	if !starved {
		s.starvedSince = 0
		return false
	}
	if s.starvedSince == 0 {
		s.starvedSince = now
	}
	return now-s.starvedSince > 2*clock.Second
}

// vote casts an elasticity vote, at most one per 100 ms and only once the
// detector's window is full, at the current mode's gate. It reports
// whether it cast one.
func (s *Sendbox) vote(haveMeas bool, now clock.Time) bool {
	if !haveMeas || now-s.lastDetectAt < 100*clock.Millisecond || !s.detector.Ready() {
		return false
	}
	s.lastDetectAt = now
	s.elasticVotes = s.elasticVotes << 1 & (1<<20 - 1)
	if s.detector.ElasticGated(s.mu(), modes[s.mode].voteGate) {
		s.elasticVotes |= 1
	}
	s.nVotes = min(s.nVotes+1, 20)
	return true
}

// elasticEntry fires when at least three of the last five votes say the
// cross traffic is elastic.
func (s *Sendbox) elasticEntry(haveMeas bool, now clock.Time) bool {
	return s.vote(haveMeas, now) && bits.OnesCount32(s.elasticVotes&0x1f) >= 3
}

// elasticExit re-engages delay control once two seconds of votes come
// back clean AND it is safe to do so (§3's litmus test): either the
// in-network queue has calmed, or whatever queue remains is mostly
// self-inflicted (the cross traffic's share is modest), in which case
// delay control is exactly the tool to remove it. Exiting while a
// buffer-filler still owns the queue would immediately re-collapse the
// delay controller.
func (s *Sendbox) elasticExit(haveMeas bool, now clock.Time) bool {
	return s.vote(haveMeas, now) && s.nVotes == 20 && s.elasticVotes == 0 &&
		(s.dqEwma < math.Max(0.25*s.minRTT.Seconds(), 0.005) || s.xcEwma < 0.3*s.mu()) &&
		now-s.modeChangedAt > 2*clock.Second
}

// Mode reports the current operating mode.
func (s *Sendbox) Mode() Mode { return s.mode }

// QueueDelay reports the sendbox queue's drain time at the capacity
// estimate.
func (s *Sendbox) QueueDelay() clock.Time {
	mu := s.mu()
	return clock.Time(float64(s.link.Queue().Bytes()*8) / mu * float64(clock.Second))
}

// EpochN reports the current epoch size in packets.
func (s *Sendbox) EpochN() uint64 { return s.epochN }

// MinRTT reports the minimum RTT the inner loop has observed.
func (s *Sendbox) MinRTT() clock.Time { return s.minRTT }

// Rate reports the pacer's applied rate in bits/s, as the last control
// tick set it.
func (s *Sendbox) Rate() float64 { return s.link.Rate() }

// Stop halts the control loop (end of experiment).
func (s *Sendbox) Stop() { s.ticker.Stop() }

// Receivebox is the destination-site box: a passive tap plus a
// control-message endpoint. Wire Observe into a netem.Tap on the site's
// ingress, register Receive at the site mux under the box's control
// address, and point out at the reverse path toward the sendbox.
type Receivebox struct {
	eng     clock.Clock
	out     netem.Receiver
	addr    pkt.Addr
	peerCtl pkt.Addr

	epochN    uint64
	bytesRcvd int64
	ipid      uint16
	pool      *pkt.Pool

	// AcksSent counts congestion ACKs emitted.
	AcksSent int
	// EpochUpdates counts epoch-size changes applied.
	EpochUpdates int
}

// NewReceivebox builds the destination-site box. out carries congestion
// ACKs back toward the sendbox (they are addressed to peerCtl). epochN
// is the starting epoch size; 0 means the Sendbox's initial one.
func NewReceivebox(eng clock.Clock, out netem.Receiver, addr, peerCtl pkt.Addr, epochN uint64) *Receivebox {
	r := new(Receivebox)
	r.Init(eng, out, addr, peerCtl, epochN)
	return r
}

// Init builds NewReceivebox's box in place, in a zero Receivebox that
// its owner carves from a slab. The box is itself the netem.Observer a
// site's ingress tap calls.
func (r *Receivebox) Init(eng clock.Clock, out netem.Receiver, addr, peerCtl pkt.Addr, epochN uint64) {
	if epochN == 0 {
		epochN = initialEpochN
	}
	*r = Receivebox{eng: eng, out: out, addr: addr, peerCtl: peerCtl, epochN: epochN}
}

// SetPool makes the box mint congestion ACKs from a partition-local
// pool (nil keeps the shared global pool).
func (r *Receivebox) SetPool(pl *pkt.Pool) { r.pool = pl }

// Observe is the datapath tap: count bundle bytes and emit a congestion
// ACK for each epoch boundary. Control packets are not bundle traffic and
// are skipped. Tunnel-mode packets are decapsulated here (the receivebox
// strips the outer header before the packet enters the site), and their
// explicit markers replace hash sampling.
func (r *Receivebox) Observe(p *pkt.Packet) {
	if p.Proto == pkt.ProtoCtl {
		return
	}
	r.bytesRcvd += int64(p.Size)
	var marker uint64
	if p.Tunneled {
		marker = p.TunnelSeq
		p.Tunneled = false
		p.TunnelSeq = 0
		p.Size -= pkt.TunnelOverhead
		if marker == 0 {
			return
		}
	} else {
		h := pkt.EpochHash(p)
		if h%r.epochN != 0 {
			return
		}
		marker = h
	}
	r.AcksSent++
	r.out.Receive(newCtlPacket(r.pool, &r.ipid, r.addr, r.peerCtl, pkt.CtlAck, marker, uint64(r.bytesRcvd)))
}

// Receive implements netem.Receiver for the control channel (epoch-size
// updates from the sendbox). The message is consumed and released.
func (r *Receivebox) Receive(p *pkt.Packet) {
	if p.Proto != pkt.ProtoCtl || p.Dst != r.addr {
		pkt.Put(p)
		return
	}
	if p.Ctl == pkt.CtlEpochUpdate && p.CtlArg[0] > 0 {
		r.epochN = p.CtlArg[0]
		r.EpochUpdates++
	}
	pkt.Put(p)
}

// EpochN reports the receivebox's current epoch size.
func (r *Receivebox) EpochN() uint64 { return r.epochN }

// BytesReceived reports cumulative bundle bytes observed.
func (r *Receivebox) BytesReceived() int64 { return r.bytesRcvd }
