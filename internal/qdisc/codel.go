package qdisc

import (
	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// CoDel is the standalone Controlled-Delay AQM (Nichols & Jacobson, [38]
// in the paper): a single FIFO whose head packets are dropped when their
// sojourn time persistently exceeds the target. The control law is
// codelState.dequeue, the one FQCoDel runs per flow; the standalone
// variant is useful as a bottleneck AQM and as a sendbox policy that
// bounds delay without per-flow state.
type CoDel struct {
	pktQueue
	drops
	eng      clock.Clock
	limit    int // packets
	target   clock.Time
	interval clock.Time
	st       codelState
}

// NewCoDel returns a CoDel queue with RFC 8289 defaults (5 ms target,
// 100 ms interval) and a droptail packet limit as a backstop.
func NewCoDel(eng clock.Clock, limitPackets int) *CoDel {
	if limitPackets <= 0 {
		panic("qdisc: CoDel limit must be positive")
	}
	return &CoDel{
		eng:      eng,
		limit:    limitPackets,
		target:   5 * clock.Millisecond,
		interval: 100 * clock.Millisecond,
	}
}

// Enqueue implements Qdisc.
func (c *CoDel) Enqueue(p *pkt.Packet) bool {
	if c.Len() >= c.limit {
		c.drops++
		return false
	}
	p.EnqueuedAt = c.eng.Now()
	c.push(p)
	return true
}

// Dequeue implements Qdisc, running the CoDel control law.
func (c *CoDel) Dequeue() *pkt.Packet {
	return c.st.dequeue(&c.pktQueue, c.eng.Now(), c.target, c.interval, c.drop)
}

// drop releases a packet the control law discarded (the queue owned it).
func (c *CoDel) drop(p *pkt.Packet) {
	c.drops++
	pkt.Put(p)
}
