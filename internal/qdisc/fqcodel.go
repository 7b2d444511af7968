package qdisc

import (
	"math"

	"bundler/internal/clock"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// FQCoDel implements the FQ-CoDel queue discipline (RFC 8290): per-flow
// queues served by deficit round robin with new-flow priority, each flow
// policed by the CoDel AQM (target 5 ms, interval 100 ms). The paper
// evaluates it as an alternative sendbox policy in §7.2, reporting ~97 %
// lower median end-to-end RTTs.
type FQCoDel struct {
	tally
	eng      clock.Clock
	flows    []fqFlow
	newFlows sim.FIFO[int]
	oldFlows sim.FIFO[int]
	quantum  int
	limit    int // total packets
	target   clock.Time
	interval clock.Time
}

type fqFlow struct {
	pktQueue
	deficit int
	state   fqFlowState
	codel   codelState
}

type fqFlowState uint8

const (
	fqIdle fqFlowState = iota
	fqNew
	fqOld
)

// NewFQCoDel returns an FQ-CoDel instance with RFC 8290 defaults.
func NewFQCoDel(eng clock.Clock, nflows, limitPackets int) *FQCoDel {
	if nflows <= 0 || limitPackets <= 0 {
		panic("qdisc: FQCoDel sizes must be positive")
	}
	return &FQCoDel{
		eng:      eng,
		flows:    make([]fqFlow, nflows),
		quantum:  pkt.MTU,
		limit:    limitPackets,
		target:   5 * clock.Millisecond,
		interval: 100 * clock.Millisecond,
	}
}

// Enqueue implements Qdisc.
func (f *FQCoDel) Enqueue(p *pkt.Packet) bool {
	if f.count >= f.limit {
		// RFC 8290 drops from the fattest flow on overflow; rejecting the
		// arrival is the common simplification when it maps to that flow.
		fi := f.fattest()
		f.drops++
		if fi < 0 || fi == f.flowOf(p) {
			return false
		}
		f.discard(f.flows[fi].pop())
	}
	fi := f.flowOf(p)
	fl := &f.flows[fi]
	p.EnqueuedAt = f.eng.Now()
	fl.push(p)
	f.in(p)
	if fl.state == fqIdle {
		fl.state = fqNew
		fl.deficit = f.quantum
		f.newFlows.Push(fi)
	}
	return true
}

func (f *FQCoDel) flowOf(p *pkt.Packet) int {
	return int(pkt.FlowHash(p, 0) % uint64(len(f.flows)))
}

func (f *FQCoDel) fattest() int {
	best, bestBytes := -1, 0
	scan := func(list []int) {
		for _, fi := range list {
			if b := f.flows[fi].Bytes(); b > bestBytes {
				best, bestBytes = fi, b
			}
		}
	}
	scan(f.newFlows.Items())
	scan(f.oldFlows.Items())
	return best
}

// Dequeue implements Qdisc: serve new flows first, then old flows, running
// each head packet through CoDel.
func (f *FQCoDel) Dequeue() *pkt.Packet {
	for {
		var list *sim.FIFO[int]
		if f.newFlows.Len() > 0 {
			list = &f.newFlows
		} else if f.oldFlows.Len() > 0 {
			list = &f.oldFlows
		} else {
			return nil
		}
		fi := list.Peek()
		fl := &f.flows[fi]
		if fl.deficit <= 0 {
			fl.deficit += f.quantum
			// Rotate to the back of old flows.
			list.Pop()
			fl.state = fqOld
			f.oldFlows.Push(fi)
			continue
		}
		p := fl.codel.dequeue(&fl.pktQueue, f.eng.Now(), f.target, f.interval, f.drop)
		if p == nil {
			// Flow went empty: a new flow leaves the lists entirely; an
			// old flow is removed (RFC 8290 would keep it briefly, a
			// detail that does not affect scheduling order here).
			list.Pop()
			fl.state = fqIdle
			continue
		}
		fl.deficit -= p.Size
		f.out(p)
		return p
	}
}

// drop counts and discards a packet a flow's control law dropped.
func (f *FQCoDel) drop(p *pkt.Packet) {
	f.drops++
	f.discard(p)
}

// codelState is the control law's state for one queue.
type codelState struct {
	firstAboveTime clock.Time
	dropNext       clock.Time
	dropCount      int
	lastDropCount  int
	dropping       bool
}

// dequeue runs the CoDel control law (RFC 8289 §5) over q, handing every
// packet it discards to drop, and returns the next packet to forward or
// nil if q has none left. It is the only implementation: CoDel runs it
// over its single queue, FQCoDel over each flow's.
func (c *codelState) dequeue(q *pktQueue, now, target, interval clock.Time, drop func(*pkt.Packet)) *pkt.Packet {
	over, nonEmpty := c.okToDrop(q, now, target, interval)
	if !nonEmpty {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !over {
			c.dropping = false
			return q.pop()
		}
		for now >= c.dropNext {
			drop(q.pop())
			c.dropCount++
			over, nonEmpty = c.okToDrop(q, now, target, interval)
			if !nonEmpty {
				c.dropping = false
				return nil
			}
			if !over {
				c.dropping = false
				return q.pop()
			}
			c.dropNext = controlLaw(c.dropNext, interval, c.dropCount)
		}
		return q.pop()
	}
	if over && (now-c.dropNext < interval || now-c.firstAboveTime >= interval) {
		// Enter dropping state.
		drop(q.pop())
		c.dropping = true
		if now-c.dropNext < interval {
			c.dropCount = max(c.dropCount-c.lastDropCount, 1)
		} else {
			c.dropCount = 1
		}
		c.dropNext = controlLaw(now, interval, c.dropCount)
		c.lastDropCount = c.dropCount
		// The head behind the first drop is evaluated too, so an emptied
		// queue leaves the dropping state at once and firstAboveTime
		// tracks the packet actually forwarded.
		if _, nonEmpty = c.okToDrop(q, now, target, interval); !nonEmpty {
			c.dropping = false
			return nil
		}
	}
	return q.pop()
}

// okToDrop evaluates the head packet's sojourn time. over reports that
// the head has been above target long enough to be a drop candidate;
// nonEmpty is false when q holds nothing.
func (c *codelState) okToDrop(q *pktQueue, now, target, interval clock.Time) (over, nonEmpty bool) {
	head := q.peek()
	if head == nil {
		c.firstAboveTime = 0
		return false, false
	}
	if now-head.EnqueuedAt < target || q.Bytes() <= pkt.MTU {
		c.firstAboveTime = 0
		return false, true
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now + interval
		return false, true
	}
	return now >= c.firstAboveTime, true
}

func controlLaw(t, interval clock.Time, count int) clock.Time {
	return t + clock.Time(float64(interval)/math.Sqrt(float64(count)))
}
