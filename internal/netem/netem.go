// Package netem is a deterministic packet-level network emulator: the
// repository's substitute for the paper's mahimahi testbed. It provides
// rate-limited links with configurable propagation delay and queueing
// discipline, pure-delay pipes, destination demultiplexers, passive taps
// (the hook the Bundler boxes use to observe traffic), and a hash-based
// multipath load balancer for the §5.2 / §7.6 experiments.
//
// Components implement Receiver and are wired explicitly into a forwarding
// graph; all behaviour unfolds on a shared clock.Clock — the simulator's
// virtual clock in experiments, a clock.Wall in the pilot datapath.
// Link rates are bits/second, delays are clock.Time, queue budgets are
// whatever the attached qdisc counts (bytes or packets).
package netem

import (
	"fmt"

	"bundler/internal/clock"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
)

// Receiver consumes packets. Links, boxes, endpoints, and taps all
// implement it.
type Receiver interface {
	Receive(p *pkt.Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *pkt.Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *pkt.Packet) { f(p) }

// Observer sees a packet without taking it. A tap calls its observer
// on every packet it forwards, and a link calls its OnTransmitted
// observer as each packet finishes serializing. Hooks are interfaces,
// not func values, so a component hands in itself (or a named
// conversion of itself) and installing a hook allocates no bound
// method value.
type Observer interface {
	Observe(p *pkt.Packet)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(p *pkt.Packet)

// Observe implements Observer.
func (f ObserverFunc) Observe(p *pkt.Packet) { f(p) }

// Sink discards packets, counting them.
type Sink struct{ Count int }

// Receive implements Receiver.
func (s *Sink) Receive(p *pkt.Packet) {
	s.Count++
	pkt.Put(p)
}

// Link is a store-and-forward link: packets are queued in a qdisc, drained
// at the link rate (serialization), then delivered after the propagation
// delay. The rate is adjustable at runtime, which is exactly how the
// Bundler sendbox enforces its pacing rate (a token-bucket filter whose
// rate the control plane rewrites).
//
// A link with a propagation delay and no OnTransmitted hook wakes the
// engine only when a packet is waiting: when a packet starts serializing
// it schedules that packet's delivery at finish + delay, and an event at
// finish only if the queue holds another packet. A packet that reaches
// an idle wire starts at once; one that reaches a busy wire with nothing
// scheduled schedules that event itself. A delay-0 link (the sendbox
// pacer, the mesh access and core links) delivers at finish and a hooked
// link calls its hook there, so both keep one event at the end of every
// packet's serialization.
type Link struct {
	eng   clock.Clock
	name  string
	rate  float64 // bits per second
	delay clock.Time
	q     qdisc.Qdisc
	dst   Receiver
	// prop carries the propagation leg: with a fixed delay, deliveries
	// are due in the order packets finish serializing.
	prop clock.Lane

	// finish is when the packet on the wire ends serializing. wake is
	// set while an engine event will start the next packet: the
	// transmit-complete event of a delay-0 or hooked link, or the event
	// at finish that a delayed link schedules when a packet waits.
	finish clock.Time
	wake   bool
	// early and earlyBytes are the packet on the wire if the link
	// counted it when it started (the delayed, hook-free case); the
	// counters leave it out until finish.
	early      int
	earlyBytes int64
	// txCarry accumulates the sub-nanosecond fraction of each packet's
	// serialization time. Truncating it per packet would run the link
	// faster than configured — at 3.7 Mbit/s the bias is ~0.4 ns/packet,
	// which over millions of packets delivers measurably more than the
	// configured rate and skews every throughput-accuracy claim.
	txCarry float64

	// Fluid coupling (see internal/fluid): fluidBps is the share of the
	// link's capacity currently consumed by fluid-modeled background
	// aggregates — packet serialization runs at rate−fluidBps — and
	// fluidBacklog is the aggregates' standing virtual queue in bytes,
	// which QueueDelay folds into the occupancy foreground control loops
	// observe. Both zero (the default) leaves every code path and every
	// float operation identical to a fluid-free link, which is what keeps
	// golden outputs byte-identical.
	fluidBps     float64
	fluidBacklog float64

	// Stats.
	delivered     int
	bytesSent     int64
	rejected      int
	onDequeue     func(p *pkt.Packet, qdelay clock.Time)
	onTransmitted Observer
}

// MinRate floors SetRate so a paced link can never stall entirely.
const MinRate = 1e3 // 1 kbit/s

// NewLink builds a link. rate is in bits/second; delay is one-way
// propagation; q is the queueing discipline holding backlogged packets.
func NewLink(eng clock.Clock, name string, rate float64, delay clock.Time, q qdisc.Qdisc, dst Receiver) *Link {
	l := new(Link)
	l.Init(eng, name, rate, delay, q, dst)
	return l
}

// Init builds NewLink's link in place, in a zero Link that its owner
// holds by value or carves from a slab.
func (l *Link) Init(eng clock.Clock, name string, rate float64, delay clock.Time, q qdisc.Qdisc, dst Receiver) {
	if rate < MinRate {
		panic(fmt.Sprintf("netem: link %s rate %.0f below minimum", name, rate))
	}
	if dst == nil {
		panic("netem: link needs a destination")
	}
	if delay < 0 {
		panic(fmt.Sprintf("netem: link %s negative delay", name))
	}
	*l = Link{eng: eng, name: name, rate: rate, delay: delay, q: q, dst: dst, prop: eng.NewLane()}
}

// NewReverseLink builds the testbed's uncongested reverse path (§7.1):
// ACKs and Bundler control messages return to dst over a 10 Gbit/s link
// with a 64 MiB FIFO and rtt/2 of propagation, so nothing an experiment
// measures ever queues on the way back.
func NewReverseLink(eng clock.Clock, rtt clock.Time, dst Receiver) *Link {
	return NewLink(eng, "reverse", 10e9, rtt/2, qdisc.NewFIFO(1<<26), dst)
}

// BDPBuffer is the testbed's default droptail buffer in bytes: two
// bandwidth-delay products of a rate-bits/s path with round trip rtt.
func BDPBuffer(rate float64, rtt clock.Time) int {
	return 2 * int(rate/8*rtt.Seconds())
}

// Receive implements Receiver: enqueue and start transmitting if idle.
// A packet the qdisc refuses is dropped here (the link owns it once
// Receive is called).
func (l *Link) Receive(p *pkt.Packet) {
	now := l.eng.Now()
	p.EnqueuedAt = now
	if !l.q.Enqueue(p) {
		l.rejected++
		pkt.Put(p)
		return
	}
	if l.wake {
		return
	}
	if now >= l.finish {
		l.transmitNext()
		return
	}
	l.wake = true
	l.eng.CallAt(l.finish, linkFree, l, nil)
}

// transmitNext dequeues and begins serializing one packet. The
// serialization and propagation legs are scheduled through the engine's
// pooled no-handle path with package-level callbacks, so the steady
// state forwards packets without allocating.
func (l *Link) transmitNext() {
	p := l.q.Dequeue()
	if p == nil {
		l.wake = false
		return
	}
	// Queue accounting invariant: a qdisc that miscounts goes negative
	// here first (it drains one packet at a time).
	if l.q.Bytes() < 0 || l.q.Len() < 0 {
		panic(fmt.Sprintf("netem: link %s qdisc accounting negative: %d pkts, %d bytes",
			l.name, l.q.Len(), l.q.Bytes()))
	}
	now := l.eng.Now()
	if l.onDequeue != nil {
		l.onDequeue(p, now-p.EnqueuedAt)
	}
	ideal := float64(p.Size*8)/l.effRate()*float64(clock.Second) + l.txCarry
	tx := clock.Time(ideal)
	if tx < 1 {
		// Sub-nanosecond serialization rounds up to the clock tick; the
		// carry resets so the (conservative) excess is not paid back.
		tx = 1
		l.txCarry = 0
	} else {
		l.txCarry = ideal - float64(tx)
	}
	l.finish = now + tx
	if l.delay == 0 || l.onTransmitted != nil {
		l.wake = true
		l.early, l.earlyBytes = 0, 0
		l.eng.CallAt(l.finish, linkTransmitted, l, p)
		return
	}
	l.delivered++
	l.bytesSent += int64(p.Size)
	l.early, l.earlyBytes = 1, int64(p.Size)
	l.prop.CallAt(l.finish+l.delay, linkDeliver, l, p)
	l.wake = l.q.Len() > 0
	if l.wake {
		l.eng.CallAt(l.finish, linkFree, l, nil)
	}
}

// linkFree runs when a delayed link's wire frees with a packet waiting.
func linkFree(a0, _ any) { a0.(*Link).transmitNext() }

// linkTransmitted runs when a packet finishes serializing on a delay-0
// or hooked link.
func linkTransmitted(a0, a1 any) {
	l, p := a0.(*Link), a1.(*pkt.Packet)
	l.delivered++
	l.bytesSent += int64(p.Size)
	if l.onTransmitted != nil {
		l.onTransmitted.Observe(p)
	}
	dst, delay := l.dst, l.delay
	if delay == 0 {
		// Continue draining before delivering so the link never
		// re-enters itself via synchronous feedback loops.
		l.transmitNext()
		dst.Receive(p)
		return
	}
	l.prop.CallAt(l.eng.Now()+delay, linkDeliver, l, p)
	l.transmitNext()
}

// linkDeliver runs when a packet finishes propagating.
func linkDeliver(a0, a1 any) {
	a0.(*Link).dst.Receive(a1.(*pkt.Packet))
}

// SetRate changes the drain rate, clamped to MinRate. The packet currently
// being serialized finishes at the old rate, matching a token bucket whose
// refill rate changed mid-packet.
func (l *Link) SetRate(bps float64) {
	if bps < MinRate {
		bps = MinRate
	}
	l.rate = bps
}

// Rate returns the configured drain rate in bits/second.
func (l *Link) Rate() float64 { return l.rate }

// effRate is the serialization rate foreground packets see: the
// configured rate minus the fluid aggregates' share, floored at MinRate.
// With no fluid load it returns l.rate itself — not a computed copy —
// so the fluid-free float math is bit-identical to the pre-fluid link.
func (l *Link) effRate() float64 {
	if l.fluidBps == 0 {
		return l.rate
	}
	r := l.rate - l.fluidBps
	if r < MinRate {
		r = MinRate
	}
	return r
}

// SetFluidLoad installs the background fluid share: bps of the link's
// capacity consumed by fluid aggregates (clamped to ≥ 0) and their
// standing virtual backlog in bytes. internal/fluid calls this once per
// ODE step; passing (0, 0) fully withdraws the fluid influence.
func (l *Link) SetFluidLoad(bps, backlogBytes float64) {
	if bps < 0 {
		bps = 0
	}
	if backlogBytes < 0 {
		backlogBytes = 0
	}
	l.fluidBps = bps
	l.fluidBacklog = backlogBytes
}

// FluidBps reports the capacity share currently consumed by fluid
// background load.
func (l *Link) FluidBps() float64 { return l.fluidBps }

// FluidBacklogBytes reports the fluid aggregates' standing virtual
// backlog.
func (l *Link) FluidBacklogBytes() float64 { return l.fluidBacklog }

// Delay returns the propagation delay.
func (l *Link) Delay() clock.Time { return l.delay }

// Queue exposes the link's qdisc (the sendbox reads its occupancy, and
// tests inspect drops).
func (l *Link) Queue() qdisc.Qdisc { return l.q }

// QueueDelay estimates the queueing delay a packet arriving now would
// experience: backlog divided by drain rate, rounded to the nearest tick
// (truncation would systematically under-report the backlog). Fluid
// background backlog queues at the full link rate alongside the packet
// backlog, so foreground control loops observe the occupancy the
// emulated users create. The fluid-free expression is untouched —
// byte-identical golden output depends on it.
func (l *Link) QueueDelay() clock.Time {
	if l.fluidBacklog != 0 {
		return clock.Time((float64(l.q.Bytes())+l.fluidBacklog)*8/l.rate*float64(clock.Second) + 0.5)
	}
	return clock.Time(float64(l.q.Bytes()*8)/l.rate*float64(clock.Second) + 0.5)
}

// Delivered reports packets fully serialized. A delayed, hook-free link
// counts a packet when it starts serializing and leaves it out here
// until it finishes, so every link reports the same count at any
// instant.
func (l *Link) Delivered() int {
	if l.eng.Now() < l.finish {
		return l.delivered - l.early
	}
	return l.delivered
}

// BytesSent reports bytes fully serialized, with the same rule as
// Delivered for the packet on the wire.
func (l *Link) BytesSent() int64 {
	if l.eng.Now() < l.finish {
		return l.bytesSent - l.earlyBytes
	}
	return l.bytesSent
}

// Rejected reports packets the qdisc refused at enqueue.
func (l *Link) Rejected() int { return l.rejected }

// OnDequeue registers a hook called as each packet leaves the queue, with
// its queueing delay. Used by experiments to trace where queues build.
func (l *Link) OnDequeue(fn func(p *pkt.Packet, qdelay clock.Time)) { l.onDequeue = fn }

// OnTransmitted registers an observer called the instant each packet
// finishes serializing (before propagation). The sendbox timestamps epoch
// boundaries here: a timestamp taken at dequeue would fold the packet's
// own serialization time — enormous at low pacing rates — into the
// measured RTT and read as phantom queueing. A hooked link schedules an
// event at the end of every packet's serialization to call it.
func (l *Link) OnTransmitted(o Observer) { l.onTransmitted = o }

// RateStep is one point of a piecewise-constant rate schedule: at virtual
// time At (relative to when the schedule starts), the link's drain rate
// becomes Bps.
type RateStep struct {
	At  clock.Time
	Bps float64
}

// ScheduleRate drives a link's drain rate through a piecewise-constant
// trace — the emulated cellular / time-varying bottleneck. Steps must be
// sorted by At. With period > 0 the trace repeats every period (each
// step's At must then be < period); with period 0 it plays once. Rates
// below MinRate are clamped by SetRate, like any other rate change.
func ScheduleRate(eng clock.Clock, l *Link, steps []RateStep, period clock.Time) {
	if len(steps) == 0 {
		return
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].At <= steps[i-1].At {
			panic("netem: rate trace steps must be sorted by time")
		}
	}
	if period > 0 && steps[len(steps)-1].At >= period {
		panic("netem: rate trace step beyond the repeat period")
	}
	var cycle func(base clock.Time)
	cycle = func(base clock.Time) {
		for _, s := range steps {
			bps := s.Bps
			clock.At(eng, base+s.At, func() { l.SetRate(bps) })
		}
		if period > 0 {
			clock.At(eng, base+period, func() { cycle(base + period) })
		}
	}
	cycle(eng.Now())
}

// Pipe delivers packets after a fixed delay with no queueing or rate
// limit: an uncongested path segment. Deliveries leave in arrival order,
// so they ride one clock.Lane.
type Pipe struct {
	eng   clock.Clock
	delay clock.Time
	dst   Receiver
	lane  clock.Lane
}

// NewPipe builds a pure-delay element.
func NewPipe(eng clock.Clock, delay clock.Time, dst Receiver) *Pipe {
	if delay < 0 {
		panic("netem: negative pipe delay")
	}
	return &Pipe{eng: eng, delay: delay, dst: dst, lane: eng.NewLane()}
}

// Receive implements Receiver.
func (pp *Pipe) Receive(p *pkt.Packet) {
	pp.lane.CallAt(pp.eng.Now()+pp.delay, pipeDeliver, pp, p)
}

func pipeDeliver(a0, a1 any) {
	pp, p := a0.(*Pipe), a1.(*pkt.Packet)
	pp.dst.Receive(p)
}

// Demux routes packets to receivers by destination site or host. A
// packet whose destination carries a site id (pkt.Addr.Site non-zero)
// takes that site's route, from a dense table indexed by the id; an
// unstamped one takes its destination host's route. A site's route
// serves every flow to it, past and future, so the table's size is the
// site count, not the flow count.
type Demux struct {
	sites []Receiver // indexed by pkt.Addr.Site; entry 0 unused
	hosts map[uint32]Receiver
	// Default receives packets with no route (nil drops them silently).
	Default Receiver
	dropped int
}

// NewDemux returns an empty destination demultiplexer.
func NewDemux() *Demux { return NewDemuxSized(0, 0) }

// NewDemuxSized returns an empty demux with room for site ids 1 to sites and hosts host routes.
func NewDemuxSized(sites, hosts int) *Demux {
	return &Demux{sites: make([]Receiver, 0, sites+1), hosts: make(map[uint32]Receiver, hosts)}
}

// Route installs dst as the receiver for unstamped packets addressed to
// host.
func (d *Demux) Route(host uint32, dst Receiver) { d.hosts[host] = dst }

// RouteSite installs dst as the receiver for packets stamped with site,
// replacing any earlier route for it. Site 0 means "no site" and panics.
func (d *Demux) RouteSite(site uint16, dst Receiver) {
	if site == 0 {
		panic("netem: site 0 has no route")
	}
	for len(d.sites) <= int(site) {
		d.sites = append(d.sites, nil)
	}
	d.sites[site] = dst
}

// Receive implements Receiver.
func (d *Demux) Receive(p *pkt.Packet) {
	if s := int(p.Dst.Site); s != 0 {
		if s < len(d.sites) && d.sites[s] != nil {
			d.sites[s].Receive(p)
			return
		}
	} else if r, ok := d.hosts[p.Dst.Host]; ok {
		r.Receive(p)
		return
	}
	if d.Default != nil {
		d.Default.Receive(p)
		return
	}
	d.dropped++
	pkt.Put(p)
}

// Dropped reports packets with no route.
func (d *Demux) Dropped() int { return d.dropped }

// Tap shows every packet to an observer, then forwards it unmodified.
// The receivebox observes traffic exactly this way (libpcap in the
// prototype).
type Tap struct {
	obs  Observer
	next Receiver
}

// NewTap builds a passive observation point that calls fn.
func NewTap(fn func(p *pkt.Packet), next Receiver) *Tap {
	t := new(Tap)
	t.Init(ObserverFunc(fn), next)
	return t
}

// Init sets t up in place as a tap that shows obs every packet before
// forwarding it to next.
func (t *Tap) Init(obs Observer, next Receiver) { t.obs, t.next = obs, next }

// Receive implements Receiver.
func (t *Tap) Receive(p *pkt.Packet) {
	t.obs.Observe(p)
	t.next.Receive(p)
}

// Lossy drops each packet independently with the given probability —
// failure injection for resilience tests (e.g. Bundler's control channel
// losing congestion ACKs or epoch-size updates).
type Lossy struct {
	eng  clock.Clock
	prob float64
	dst  Receiver
	// Dropped counts discarded packets.
	Dropped int
	// Filter restricts dropping to matching packets (nil = all).
	Filter func(*pkt.Packet) bool
}

// NewLossy builds a Bernoulli-loss element using the engine's
// deterministic randomness.
func NewLossy(eng clock.Clock, prob float64, dst Receiver) *Lossy {
	if prob < 0 || prob > 1 {
		panic("netem: loss probability out of range")
	}
	return &Lossy{eng: eng, prob: prob, dst: dst}
}

// Receive implements Receiver.
func (l *Lossy) Receive(p *pkt.Packet) {
	if (l.Filter == nil || l.Filter(p)) && l.eng.Rand().Float64() < l.prob {
		l.Dropped++
		pkt.Put(p)
		return
	}
	l.dst.Receive(p)
}

// Jitter delays each packet by a uniform random amount in [0, Max) on top
// of the downstream path — reverse-path delay variation for measurement
// robustness tests. Note that jitter larger than the inter-packet spacing
// reorders packets, which Bundler's out-of-order heuristic will (by
// design) notice. An order-preserving variant (NewOrderedJitter) clamps
// each delivery to no earlier than the previous one, modeling delay
// variation on a FIFO in-path element — real queues jitter latency
// without reordering, and an emulated element that invents reordering
// falsely trips the §5.2 multipath detector.
type Jitter struct {
	eng     clock.Clock
	max     clock.Time
	dst     Receiver
	ordered clock.Lane // ordered mode's deliveries; nil: may reorder
	lastDue clock.Time // latest scheduled delivery (ordered mode)
}

// NewJitter builds a uniform-jitter element that may reorder.
func NewJitter(eng clock.Clock, max clock.Time, dst Receiver) *Jitter {
	if max < 0 {
		panic("netem: negative jitter")
	}
	return &Jitter{eng: eng, max: max, dst: dst}
}

// NewOrderedJitter builds a uniform-jitter element that preserves arrival
// order: a packet drawn an earlier delivery time than an already-scheduled
// predecessor is held until the predecessor leaves (the engine dispatches
// equal timestamps FIFO). Per-packet draws consume the engine RNG exactly
// as NewJitter does, so swapping modes changes scheduling, not the random
// stream.
func NewOrderedJitter(eng clock.Clock, max clock.Time, dst Receiver) *Jitter {
	j := NewJitter(eng, max, dst)
	j.ordered = eng.NewLane()
	return j
}

// Receive implements Receiver.
func (j *Jitter) Receive(p *pkt.Packet) {
	d := clock.Time(0)
	if j.max > 0 {
		d = clock.Time(j.eng.Rand().Int63n(int64(j.max)))
	}
	if j.ordered == nil {
		j.eng.CallAfter(d, jitterDeliver, j, p)
		return
	}
	j.lastDue = max(j.lastDue, j.eng.Now()+d)
	j.ordered.CallAt(j.lastDue, jitterDeliver, j, p)
}

func jitterDeliver(a0, a1 any) {
	j, p := a0.(*Jitter), a1.(*pkt.Packet)
	j.dst.Receive(p)
}

// LoadBalancer splits traffic across parallel paths, picking one per flow
// by hash (ECMP-style, the common case the paper's Scamper study observed
// at 26 % of IP hops). Each path is the head of an independent chain
// (typically a Link with its own delay/queue) that eventually converges
// on the same downstream receiver.
type LoadBalancer struct {
	paths []Receiver
	sent  []int
}

// NewLoadBalancer builds a balancer over the given paths.
func NewLoadBalancer(paths ...Receiver) *LoadBalancer {
	if len(paths) == 0 {
		panic("netem: load balancer needs at least one path")
	}
	return &LoadBalancer{paths: paths, sent: make([]int, len(paths))}
}

// Receive implements Receiver.
func (lb *LoadBalancer) Receive(p *pkt.Packet) {
	i := int(pkt.FlowHash(p, 0x9E3779B97F4A7C15) % uint64(len(lb.paths)))
	lb.sent[i]++
	lb.paths[i].Receive(p)
}

// SentPerPath reports how many packets took each path.
func (lb *LoadBalancer) SentPerPath() []int {
	out := make([]int, len(lb.sent))
	copy(out, lb.sent)
	return out
}
