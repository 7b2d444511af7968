package qdisc

import "bundler/internal/pkt"

// pktQueue is the FIFO packet store every discipline in this package
// embeds — once per queue, flow, bucket or class: a slice consumed from
// a moving head, with the byte count of what it holds. Its memory follows
// the backlog, not the packets served: the slice resets whenever the
// queue empties and compacts once the dead prefix exceeds 64 slots and
// is at least half the slice, so a queue that never drains still reuses
// its storage. A single-queue discipline (FIFO, CoDel, RED, PIE) takes
// its Len and Bytes from the queue it embeds.
type pktQueue struct {
	q     []*pkt.Packet
	head  int
	bytes int
}

// Len implements Qdisc.
func (q *pktQueue) Len() int { return len(q.q) - q.head }

// Bytes implements Qdisc.
func (q *pktQueue) Bytes() int { return q.bytes }

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

// drops is the cumulative count of packets a discipline rejected or
// evicted; every discipline embeds one, directly or through a tally.
type drops int

// Drops implements Qdisc.
func (d drops) Drops() int { return int(d) }

// tally is the occupancy ledger of a discipline that spreads its packets
// over many queues (SFQ, DRR, FQ-CoDel, SP, WFQ): every packet admitted
// passes through in, and leaves through out when served or discard when
// evicted.
type tally struct {
	count, bytes int
	drops
}

// Len implements Qdisc.
func (t *tally) Len() int { return t.count }

// Bytes implements Qdisc.
func (t *tally) Bytes() int { return t.bytes }

func (t *tally) in(p *pkt.Packet) {
	t.count++
	t.bytes += p.Size
}

func (t *tally) out(p *pkt.Packet) {
	t.count--
	t.bytes -= p.Size
}

// discard removes p, already popped from its queue, from the books and
// releases it: the discipline owned it, and an eviction is its end of
// life. The caller counts the drop.
func (t *tally) discard(p *pkt.Packet) {
	t.out(p)
	pkt.Put(p)
}
