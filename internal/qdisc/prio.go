package qdisc

import "bundler/internal/pkt"

// Classifier maps a packet to a priority band; band 0 is served first.
type Classifier func(*pkt.Packet) int

// Prio is a strict-priority scheduler over per-band FIFOs. The paper uses
// it in §7.2 to give one traffic class absolute precedence over another
// (~65 % lower median FCT for the favored class).
type Prio struct {
	drops
	bands    []*FIFO
	classify Classifier
}

// NewPrio builds a strict-priority qdisc with nbands droptail bands of
// limitBytes each. classify must return a band in [0, nbands); out-of-range
// results are clamped to the lowest priority.
func NewPrio(nbands, limitBytes int, classify Classifier) *Prio {
	if nbands <= 0 {
		panic("qdisc: Prio needs at least one band")
	}
	p := &Prio{bands: make([]*FIFO, nbands), classify: classify}
	for i := range p.bands {
		p.bands[i] = NewFIFO(limitBytes)
	}
	return p
}

// Enqueue implements Qdisc.
func (pr *Prio) Enqueue(p *pkt.Packet) bool {
	b := pr.classify(p)
	if b < 0 || b >= len(pr.bands) {
		b = len(pr.bands) - 1
	}
	ok := pr.bands[b].Enqueue(p)
	if !ok {
		pr.drops++
	}
	return ok
}

// Dequeue implements Qdisc: highest-priority non-empty band wins.
func (pr *Prio) Dequeue() *pkt.Packet {
	for _, b := range pr.bands {
		if p := b.Dequeue(); p != nil {
			return p
		}
	}
	return nil
}

// Len implements Qdisc.
func (pr *Prio) Len() int {
	n := 0
	for _, b := range pr.bands {
		n += b.Len()
	}
	return n
}

// Bytes implements Qdisc.
func (pr *Prio) Bytes() int {
	n := 0
	for _, b := range pr.bands {
		n += b.Bytes()
	}
	return n
}
