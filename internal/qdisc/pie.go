package qdisc

import (
	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// PIE implements the Proportional-Integral-controller-Enhanced AQM (Pan et
// al., [39] in the paper): a drop probability updated periodically from
// the estimated queueing delay and its trend, targeting a configured
// latency without per-packet timestamps.
type PIE struct {
	pktQueue
	drops
	eng clock.Clock

	limit int // packets

	target     clock.Time
	alpha      float64 // per (delay error in s)
	beta       float64 // per (delay delta in s)
	dropProb   float64
	lastQDelay clock.Time
	drainRate  float64 // bytes/s EWMA, estimated from dequeues

	// Departure-rate measurement window. winValid is an explicit "a
	// window is open" flag — sim-time 0 is a valid instant, so it cannot
	// double as an uninitialized sentinel — and the window is abandoned
	// whenever the queue empties, so a measurement never spans an idle
	// gap (which would divide real departures by idle wall-time and
	// collapse the drain-rate EWMA).
	winStart clock.Time
	winBytes int
	winValid bool

	ticker clock.Ticker
}

// NewPIE builds a PIE queue with the RFC 8033 defaults: 15 ms target,
// 15 ms update interval, α = 0.125, β = 1.25. Random drop decisions draw
// from the clock's RNG (eng.Rand()), so simulated runs stay reproducible.
func NewPIE(eng clock.Clock, limitPackets int) *PIE {
	if limitPackets <= 0 {
		panic("qdisc: PIE limit must be positive")
	}
	p := &PIE{
		eng: eng, limit: limitPackets,
		target: 15 * clock.Millisecond, alpha: 0.125, beta: 1.25,
	}
	p.ticker = eng.Tick(15*clock.Millisecond, p.update)
	return p
}

// Stop cancels the periodic probability update.
func (p *PIE) Stop() { p.ticker.Stop() }

// qdelay estimates current queueing delay via Little's law from the
// departure-rate estimate.
func (p *PIE) qdelay() clock.Time {
	if p.drainRate <= 0 {
		if p.Len() == 0 {
			return 0
		}
		return p.target // no estimate yet: assume at target
	}
	return clock.FromSeconds(float64(p.Bytes()) / p.drainRate)
}

func (p *PIE) update() {
	qd := p.qdelay()
	p.dropProb += p.alpha*(qd-p.target).Seconds() + p.beta*(qd-p.lastQDelay).Seconds()
	if p.dropProb < 0 {
		p.dropProb = 0
	}
	if p.dropProb > 1 {
		p.dropProb = 1
	}
	// Decay when idle.
	if qd == 0 && p.lastQDelay == 0 {
		p.dropProb *= 0.98
	}
	p.lastQDelay = qd
}

// Enqueue implements Qdisc with PIE's probabilistic early drop.
func (p *PIE) Enqueue(pk *pkt.Packet) bool {
	if p.Len() >= p.limit {
		p.drops++
		return false
	}
	// Don't early-drop when nearly empty (burst allowance).
	if p.Bytes() > 2*pkt.MTU && p.eng.Rand().Float64() < p.dropProb {
		p.drops++
		return false
	}
	p.push(pk)
	return true
}

// Dequeue implements Qdisc and feeds the departure-rate estimator.
func (p *PIE) Dequeue() *pkt.Packet {
	out := p.pop()
	if out == nil {
		return nil
	}
	// Departure-rate EWMA over 100 ms busy-period measurement windows.
	now := p.eng.Now()
	if !p.winValid {
		p.winStart = now
		p.winBytes = 0
		p.winValid = true
	}
	p.winBytes += out.Size
	if dt := now - p.winStart; dt >= 100*clock.Millisecond {
		rate := float64(p.winBytes) / dt.Seconds()
		if p.drainRate == 0 {
			p.drainRate = rate
		} else {
			p.drainRate = 0.9*p.drainRate + 0.1*rate
		}
		p.winStart = now
		p.winBytes = 0
	}
	if p.Len() == 0 {
		// Queue drained: close the window so the next busy period starts
		// fresh instead of averaging departures over the idle gap.
		p.winValid = false
	}
	return out
}
