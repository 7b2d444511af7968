// Package qdisc implements the packet schedulers Bundler enforces at the
// sendbox (§4.2's "flexible queueing policies", evaluated in §7.2) and
// that the emulated bottleneck uses: droptail FIFO, Stochastic Fairness
// Queueing (SFQ), FQ-CoDel, and strict priority.
//
// The interface mirrors the Linux qdisc contract the paper's prototype
// patches into tc: enqueue (possibly dropping), dequeue, and occupancy
// introspection. Queues that make time-based decisions receive the
// simulation engine at construction; CoDel's control law exists once
// (codelState.dequeue), run by CoDel over its queue and by FQCoDel over
// each flow's. Capacity limits are bytes for FIFO, RED, and Prio, packets
// for the flow-queueing disciplines — each constructor documents which.
package qdisc

import "bundler/internal/pkt"

// Qdisc is a packet queue with a scheduling discipline.
type Qdisc interface {
	// Enqueue accepts p or drops it, reporting whether it was accepted.
	Enqueue(p *pkt.Packet) bool
	// Dequeue removes and returns the next packet to send, or nil when the
	// queue is empty.
	Dequeue() *pkt.Packet
	// Len reports queued packets.
	Len() int
	// Bytes reports queued bytes.
	Bytes() int
	// Drops reports the cumulative count of dropped packets.
	Drops() int
}

// FIFO is a droptail queue bounded in bytes.
type FIFO struct {
	pktQueue
	drops
	limit int // bytes
}

// NewFIFO returns a droptail FIFO that holds at most limitBytes.
func NewFIFO(limitBytes int) *FIFO {
	if limitBytes <= 0 {
		panic("qdisc: FIFO limit must be positive")
	}
	return &FIFO{limit: limitBytes}
}

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(p *pkt.Packet) bool {
	if f.Bytes()+p.Size > f.limit {
		f.drops++
		return false
	}
	f.push(p)
	return true
}

// Dequeue implements Qdisc.
func (f *FIFO) Dequeue() *pkt.Packet { return f.pop() }
