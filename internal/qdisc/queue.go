package qdisc

import "bundler/internal/pkt"

// pktQueue is the FIFO packet store every discipline in this package
// embeds — once per queue, flow, bucket or class: a pkt.Queue, linked
// through the packets it holds, so it allocates nothing and its memory
// is what is queued. Its methods stay unexported, so a discipline that
// embeds it gains only Len and Bytes; a single-queue discipline (FIFO,
// CoDel, RED, PIE) takes its Len and Bytes from here.
type pktQueue struct{ q pkt.Queue }

// Len implements Qdisc.
func (q *pktQueue) Len() int { return q.q.Len() }

// Bytes implements Qdisc.
func (q *pktQueue) Bytes() int { return q.q.Bytes() }

func (q *pktQueue) push(p *pkt.Packet) { q.q.Push(p) }

// peek returns the head packet without removing it, or nil when empty.
func (q *pktQueue) peek() *pkt.Packet { return q.q.Peek() }

// pop removes and returns the head packet, or nil when empty.
func (q *pktQueue) pop() *pkt.Packet { return q.q.Pop() }

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
