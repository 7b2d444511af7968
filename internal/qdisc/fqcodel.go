package qdisc

import (
	"math"

	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// FQCoDel implements the FQ-CoDel queue discipline (RFC 8290): per-flow
// queues served by deficit round robin with new-flow priority, each flow
// policed by the CoDel AQM (target 5 ms, interval 100 ms). The paper
// evaluates it as an alternative sendbox policy in §7.2, reporting ~97 %
// lower median end-to-end RTTs.
type FQCoDel struct {
	eng      clock.Clock
	flows    []fqFlow
	newFlows []int
	oldFlows []int
	quantum  int
	limit    int
	count    int
	bytes    int
	drops    int
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

type codelState struct {
	firstAboveTime clock.Time
	dropNext       clock.Time
	dropCount      int
	lastDropCount  int
	dropping       bool
}

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
		f.dropHead(fi)
	}
	fi := f.flowOf(p)
	fl := &f.flows[fi]
	p.EnqueuedAt = f.eng.Now()
	fl.push(p)
	f.count++
	f.bytes += p.Size
	if fl.state == fqIdle {
		fl.state = fqNew
		fl.deficit = f.quantum
		f.newFlows = append(f.newFlows, fi)
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
			if b := f.flows[fi].bytes; b > bestBytes {
				best, bestBytes = fi, b
			}
		}
	}
	scan(f.newFlows)
	scan(f.oldFlows)
	return best
}

func (f *FQCoDel) dropHead(fi int) {
	fl := &f.flows[fi]
	p := fl.pop()
	f.count--
	f.bytes -= p.Size
	pkt.Put(p) // internal drop: the queue owned it
}

// Dequeue implements Qdisc: serve new flows first, then old flows, running
// each head packet through CoDel.
func (f *FQCoDel) Dequeue() *pkt.Packet {
	for {
		var list *[]int
		if len(f.newFlows) > 0 {
			list = &f.newFlows
		} else if len(f.oldFlows) > 0 {
			list = &f.oldFlows
		} else {
			return nil
		}
		fi := (*list)[0]
		fl := &f.flows[fi]
		if fl.deficit <= 0 {
			fl.deficit += f.quantum
			// Rotate to the back of old flows.
			*list = (*list)[1:]
			fl.state = fqOld
			f.oldFlows = append(f.oldFlows, fi)
			continue
		}
		p := f.codelDequeue(fl)
		if p == nil {
			// Flow went empty: a new flow leaves the lists entirely; an
			// old flow is removed (RFC 8290 would keep it briefly, a
			// detail that does not affect scheduling order here).
			*list = (*list)[1:]
			fl.state = fqIdle
			continue
		}
		fl.deficit -= p.Size
		f.count--
		f.bytes -= p.Size
		return p
	}
}

// codelDequeue runs the CoDel state machine for one flow, returning the
// next packet to forward (dropping sojourn-time violators), or nil if the
// flow has no packets left.
func (f *FQCoDel) codelDequeue(fl *fqFlow) *pkt.Packet {
	now := f.eng.Now()
	c := &fl.codel
	p, ok := f.codelShouldDrop(fl, now)
	if !ok { // queue empty
		c.dropping = false
		return nil
	}
	if c.dropping {
		if p == nil {
			c.dropping = false
			return fl.pop()
		}
		for now >= c.dropNext && c.dropping {
			f.dropPacket(fl)
			c.dropCount++
			p, ok = f.codelShouldDrop(fl, now)
			if !ok {
				c.dropping = false
				return nil
			}
			if p == nil {
				c.dropping = false
				return fl.pop()
			}
			c.dropNext = controlLaw(c.dropNext, f.interval, c.dropCount)
		}
		return fl.pop()
	}
	if p != nil && (now-c.dropNext < f.interval || now-c.firstAboveTime >= f.interval) {
		// Enter dropping state.
		f.dropPacket(fl)
		c.dropping = true
		if now-c.dropNext < f.interval {
			c.dropCount = max(c.dropCount-c.lastDropCount, 1)
		} else {
			c.dropCount = 1
		}
		c.dropNext = controlLaw(now, f.interval, c.dropCount)
		c.lastDropCount = c.dropCount
		np, ok := f.codelShouldDrop(fl, now)
		if !ok {
			c.dropping = false
			return nil
		}
		_ = np
		return fl.pop()
	}
	return fl.pop()
}

// dropPacket drops the flow head and updates aggregate counters.
func (f *FQCoDel) dropPacket(fl *fqFlow) {
	p := fl.pop()
	f.count--
	f.bytes -= p.Size
	f.drops++
	pkt.Put(p) // internal drop: the queue owned it
}

// codelShouldDrop evaluates the head packet's sojourn time. It returns
// (head, true) when the head is above target long enough to be a drop
// candidate, (nil, true) when below target, and (nil, false) when empty.
func (f *FQCoDel) codelShouldDrop(fl *fqFlow, now clock.Time) (*pkt.Packet, bool) {
	head := fl.peek()
	if head == nil {
		fl.codel.firstAboveTime = 0
		return nil, false
	}
	sojourn := now - head.EnqueuedAt
	if sojourn < f.target || fl.bytes <= pkt.MTU {
		fl.codel.firstAboveTime = 0
		return nil, true
	}
	if fl.codel.firstAboveTime == 0 {
		fl.codel.firstAboveTime = now + f.interval
		return nil, true
	}
	if now < fl.codel.firstAboveTime {
		return nil, true
	}
	return head, true
}

func controlLaw(t, interval clock.Time, count int) clock.Time {
	return t + clock.Time(float64(interval)/math.Sqrt(float64(count)))
}

// Len implements Qdisc.
func (f *FQCoDel) Len() int { return f.count }

// Bytes implements Qdisc.
func (f *FQCoDel) Bytes() int { return f.bytes }

// Drops implements Qdisc.
func (f *FQCoDel) Drops() int { return f.drops }
