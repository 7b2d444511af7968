package qdisc

import "bundler/internal/pkt"

// ClassStat accumulates one class's served totals at a Meter.
type ClassStat struct {
	Class   Class
	Packets int64
	Bytes   int64
}

// Meter wraps any Qdisc with per-class service accounting and the
// work-conservation counters the fairness report is built from. Because
// it wraps rather than extends, every scheduler mode — FIFO included —
// yields the same per-class throughput and utilization figures, so a
// fifo/sp/wfq sweep compares like with like. Served packets are
// attributed by destination port against the declared classes;
// unmatched traffic lands in a trailing "other" bucket.
//
// Work conservation is measured at the dequeue boundary: an attempt is
// a Dequeue call made while the inner queue was non-empty, and it is
// served if the call returned a packet. A work-conserving scheduler
// keeps the ratio at exactly 1.0 whenever any class is backlogged.
type Meter struct {
	wrapped              // Enqueue, Len, Bytes and Drops pass through
	stats    []ClassStat // one per class, plus the trailing "other" bucket
	byPort   map[uint16]int
	attempts int64
	served   int64
}

// wrapped names the scheduler a Meter embeds without exporting the field.
type wrapped = Qdisc

// NewMeter wraps inner with per-class accounting for classes.
func NewMeter(inner Qdisc, classes []Class) *Meter {
	m := &Meter{
		wrapped: inner,
		stats:   make([]ClassStat, len(classes)+1),
		byPort:  make(map[uint16]int, len(classes)),
	}
	for i, c := range classes {
		m.stats[i].Class = c
		m.byPort[c.Port] = i
	}
	m.stats[len(classes)].Class = Class{Name: "other"}
	return m
}

// Dequeue implements Qdisc, attributing each served packet to its class.
func (m *Meter) Dequeue() *pkt.Packet {
	backlogged := m.Len() > 0
	p := m.wrapped.Dequeue()
	if backlogged {
		m.attempts++
		if p != nil {
			m.served++
		}
	}
	if p != nil {
		i, ok := m.byPort[p.Dst.Port]
		if !ok {
			i = len(m.stats) - 1
		}
		m.stats[i].Packets++
		m.stats[i].Bytes += int64(p.Size)
	}
	return p
}

// Stats returns the per-class service totals: one entry per declared
// class in declaration order, plus the "other" bucket only if unmatched
// traffic was actually served.
func (m *Meter) Stats() []ClassStat {
	n := len(m.stats) - 1
	out := make([]ClassStat, n, n+1)
	copy(out, m.stats[:n])
	if m.stats[n].Packets > 0 {
		out = append(out, m.stats[n])
	}
	return out
}

// Attempts reports Dequeue calls made while the queue was backlogged.
func (m *Meter) Attempts() int64 { return m.attempts }

// Served reports backlogged Dequeue calls that returned a packet.
func (m *Meter) Served() int64 { return m.served }

// WorkConservation reports served/attempts — 1.0 (vacuously) when the
// queue was never polled while backlogged.
func (m *Meter) WorkConservation() float64 {
	if m.attempts == 0 {
		return 1
	}
	return float64(m.served) / float64(m.attempts)
}
