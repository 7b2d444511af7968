package qdisc

import (
	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// CoDel is the standalone Controlled-Delay AQM (Nichols & Jacobson, [38]
// in the paper): a single FIFO whose head packets are dropped when their
// sojourn time persistently exceeds the target. FQCoDel runs its own copy
// of the state machine per flow (the two differ when entering the dropping
// state); the standalone variant is useful as a bottleneck AQM and as a
// sendbox policy that bounds delay without per-flow state.
type CoDel struct {
	pktQueue
	eng      clock.Clock
	limit    int // packets
	drops    int
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

// shouldDrop evaluates the head's sojourn time against the CoDel state
// machine. It returns (candidate, queueNonEmpty).
func (c *CoDel) shouldDrop(now clock.Time) (bool, bool) {
	head := c.peek()
	if head == nil {
		c.st.firstAboveTime = 0
		return false, false
	}
	sojourn := now - head.EnqueuedAt
	if sojourn < c.target || c.bytes <= pkt.MTU {
		c.st.firstAboveTime = 0
		return false, true
	}
	if c.st.firstAboveTime == 0 {
		c.st.firstAboveTime = now + c.interval
		return false, true
	}
	return now >= c.st.firstAboveTime, true
}

// Dequeue implements Qdisc, running the CoDel control law.
func (c *CoDel) Dequeue() *pkt.Packet {
	now := c.eng.Now()
	drop, nonEmpty := c.shouldDrop(now)
	if !nonEmpty {
		c.st.dropping = false
		return nil
	}
	if c.st.dropping {
		if !drop {
			c.st.dropping = false
			return c.pop()
		}
		for now >= c.st.dropNext && c.st.dropping {
			pkt.Put(c.pop()) // internal drop: the queue owned it
			c.drops++
			c.st.dropCount++
			drop, nonEmpty = c.shouldDrop(now)
			if !nonEmpty {
				c.st.dropping = false
				return nil
			}
			if !drop {
				c.st.dropping = false
				return c.pop()
			}
			c.st.dropNext = controlLaw(c.st.dropNext, c.interval, c.st.dropCount)
		}
		return c.pop()
	}
	if drop && (now-c.st.dropNext < c.interval || now-c.st.firstAboveTime >= c.interval) {
		pkt.Put(c.pop()) // internal drop: the queue owned it
		c.drops++
		c.st.dropping = true
		if now-c.st.dropNext < c.interval {
			c.st.dropCount = max(c.st.dropCount-c.st.lastDropCount, 1)
		} else {
			c.st.dropCount = 1
		}
		c.st.dropNext = controlLaw(now, c.interval, c.st.dropCount)
		c.st.lastDropCount = c.st.dropCount
	}
	return c.pop()
}

// Len implements Qdisc.
func (c *CoDel) Len() int { return c.len() }

// Bytes implements Qdisc.
func (c *CoDel) Bytes() int { return c.bytes }

// Drops implements Qdisc.
func (c *CoDel) Drops() int { return c.drops }
