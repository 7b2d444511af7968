// Package fluid models background traffic as an aggregate rate ODE
// instead of per-packet TCP state — the hybrid-simulation half of the
// ROADMAP's "millions of users per site" target. An aggregate's Class
// stands for an arbitrary number of emulated users whose combined send rate
// evolves by discrete-step AIMD (additive increase per user, one
// multiplicative cut per RTT on loss), against a virtual buffer whose
// overflow is the loss signal. The aggregate couples into a
// netem.Link: the fluid's served rate consumes link capacity (packet
// serialization slows by exactly that share) and its standing backlog
// contributes queueing delay — so packet-simulated foreground bundles
// feel the background load without a single background packet existing.
//
// State per aggregate is O(1) regardless of Users, which is what makes a
// 10⁶-user site cost the same memory as a 10-user one.
package fluid

import (
	"fmt"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
)

// DefaultStep is the rate-ODE integration step. 10 ms is well under the
// RTTs the scenarios use (20–100 ms), so the AIMD dynamics are resolved,
// while a 60 s horizon costs only 6000 ticks per aggregate.
const DefaultStep = 10 * clock.Millisecond

// ForegroundHeadroom is the capacity fraction fluid aggregates can never
// take from the foreground. A fluid model has no per-packet round-robin
// to keep a thin packet flow alive the way a real FIFO (or the sendbox's
// SFQ) interleaves it, so without a floor an overwhelming aggregate —
// 10⁵ users whose one-MSS-per-RTT floor already exceeds the link —
// would starve the packet path to netem.MinRate and foreground flows
// would effectively never complete. Five percent models the service
// share a handful of foreground flows would win against a saturated
// aggregate under FIFO statistical multiplexing.
const ForegroundHeadroom = 0.05

// Class describes the background aggregate sharing a link.
type Class struct {
	// Name labels the class in reports.
	Name string
	// Users is the emulated flow count: it scales the aggregate's
	// additive-increase slope and its rate floor (each user always has
	// at least one MSS per RTT in flight), but not the memory footprint.
	Users int
	// RTT is the aggregate's feedback delay: the additive-increase and
	// multiplicative-decrease clock.
	RTT clock.Time
}

// Aggregate evolves one fluid class on one link. It lives on the link's
// own engine, so in a sharded mesh every site's aggregate ticks inside
// that site's shard — no cross-shard state.
type Aggregate struct {
	eng   clock.Clock
	link  *netem.Link
	step  clock.Time
	class Class // zero Users until AddClass

	// bufBytes is the virtual buffer backing the aggregate, one
	// bandwidth-delay product at AddClass time; backlog beyond it is
	// lost, which is the AIMD loss signal.
	bufBytes  float64
	rate      float64 // current aggregate send rate, bits/s
	backlog   float64 // bytes standing in the virtual buffer
	lastCut   clock.Time
	cutValid  bool
	delivered float64 // cumulative drained bytes
	lost      float64 // cumulative overflow bytes

	lastPktBytes int64 // link.BytesSent() at the previous tick
	ticker       clock.Ticker
}

// Attach builds an aggregate over link, ticking every step (DefaultStep
// if step is zero). Its class is added with AddClass before the first
// tick fires; the aggregate starts influencing the link once it exists.
// The link must carry no other aggregate: each one overwrites the link's
// fluid load.
func Attach(eng clock.Clock, link *netem.Link, step clock.Time) *Aggregate {
	if step <= 0 {
		step = DefaultStep
	}
	a := &Aggregate{eng: eng, link: link, step: step, lastPktBytes: link.BytesSent()}
	a.ticker = eng.Tick(step, a.tick)
	return a
}

// AddClass sets the aggregate's one class; a second call panics. Rate
// starts at the one-MSS-per-RTT-per-user floor, exactly like a
// slow-start entry point without the exponential phase (the steady-state
// behavior under heavy multiplexing is AIMD-dominated either way).
func (a *Aggregate) AddClass(c Class) {
	if a.class.Users > 0 {
		panic(fmt.Sprintf("fluid: class %q added to an aggregate that has %q", c.Name, a.class.Name))
	}
	if c.Users <= 0 {
		panic(fmt.Sprintf("fluid: class %q needs a positive user count", c.Name))
	}
	if c.RTT <= 0 {
		panic(fmt.Sprintf("fluid: class %q needs a positive RTT", c.Name))
	}
	a.class = c
	a.bufBytes = a.link.Rate() * c.RTT.Seconds() / 8
	a.rate = a.floor()
}

// floor is the rate the aggregate can never drop below: one MSS per RTT
// per user, the fluid analogue of TCP's minimum window.
func (a *Aggregate) floor() float64 {
	return float64(a.class.Users) * float64(pkt.MSS) * 8 / a.class.RTT.Seconds()
}

// Stop cancels the tick loop and withdraws the fluid load from the link.
func (a *Aggregate) Stop() {
	a.ticker.Stop()
	a.link.SetFluidLoad(0, 0)
}

// tick advances the class by one ODE step and pushes its served rate and
// backlog into the link.
func (a *Aggregate) tick() {
	if a.class.Users == 0 {
		return
	}
	dt := a.step.Seconds()
	now := a.eng.Now()

	// Capacity left for fluid this step: the link rate (minus the
	// guaranteed foreground headroom) minus the packet throughput the
	// foreground actually achieved over the last step.
	sent := a.link.BytesSent()
	pktBps := float64(sent-a.lastPktBytes) * 8 / dt
	a.lastPktBytes = sent
	avail := a.link.Rate()*(1-ForegroundHeadroom) - pktBps
	if avail < 0 {
		avail = 0
	}
	capBytes := avail * dt / 8

	// Offered fluid this step: standing backlog plus fresh sending.
	inflow := a.backlog + a.rate*dt/8
	drained := inflow
	if inflow > capBytes {
		// Oversubscribed. The form is the proportional split several
		// classes once shared, kept so the floats stay the same.
		drained = capBytes * inflow / inflow
	}
	remaining := inflow - drained
	lost := remaining - a.bufBytes
	if lost < 0 {
		lost = 0
	}
	a.backlog = remaining - lost
	a.delivered += drained
	a.lost += lost

	// AIMD: at most one multiplicative cut per RTT on loss; otherwise
	// every user adds one MSS per RTT per RTT.
	if lost > 0 {
		if !a.cutValid || now-a.lastCut >= a.class.RTT {
			a.rate *= 0.5
			a.lastCut = now
			a.cutValid = true
		}
	} else {
		rtt := a.class.RTT.Seconds()
		a.rate += float64(a.class.Users) * float64(pkt.MSS) * 8 / (rtt * rtt) * dt
	}
	if f := a.floor(); a.rate < f {
		a.rate = f
	}
	a.link.SetFluidLoad(drained*8/dt, a.backlog)
}

// Users reports the emulated user count (0 before AddClass).
func (a *Aggregate) Users() int { return a.class.Users }

// DeliveredBytes reports the cumulative fluid bytes drained through the
// link.
func (a *Aggregate) DeliveredBytes() float64 { return a.delivered }

// LostBytes reports the cumulative virtual-buffer overflow — the loss
// volume that drove the AIMD cuts.
func (a *Aggregate) LostBytes() float64 { return a.lost }
