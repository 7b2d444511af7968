package qdisc

import "bundler/internal/pkt"

// pktQueue is the FIFO packet store every discipline in this package
// embeds — once per queue, flow, bucket or class: a slice consumed from
// a moving head, with the byte count of what it holds. Its memory follows
// the backlog, not the packets served: the slice resets whenever the
// queue empties and compacts once the dead prefix exceeds 64 slots and
// is at least half the slice, so a queue that never drains still reuses
// its storage.
type pktQueue struct {
	q     []*pkt.Packet
	head  int
	bytes int
}

func (q *pktQueue) len() int { return len(q.q) - q.head }

func (q *pktQueue) push(p *pkt.Packet) {
	q.q = append(q.q, p)
	q.bytes += p.Size
}

// peek returns the head packet without removing it, or nil when empty.
func (q *pktQueue) peek() *pkt.Packet {
	if q.head == len(q.q) {
		return nil
	}
	return q.q[q.head]
}

// pop removes and returns the head packet, or nil when empty.
func (q *pktQueue) pop() *pkt.Packet {
	if q.head == len(q.q) {
		return nil
	}
	p := q.q[q.head]
	q.q[q.head] = nil
	q.head++
	q.bytes -= p.Size
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.q) {
		q.q = append(q.q[:0], q.q[q.head:]...)
		q.head = 0
	}
	return p
}
