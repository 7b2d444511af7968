package qdisc

import (
	"math"

	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// redFallbackTx is the transmission-slot estimate used for the idle-time
// correction before any back-to-back dequeue spacing has been observed
// (one MTU at ~12 Mbit/s). It only matters for the very first idle
// period; afterwards the measured service-time EWMA takes over.
const redFallbackTx = clock.Millisecond

// RED implements Random Early Detection (Floyd & Jacobson, [18] in the
// paper): arriving packets are dropped with a probability that grows
// linearly as the EWMA of the queue size moves between two thresholds,
// signalling endhost loops before the buffer overflows.
type RED struct {
	pktQueue
	drops
	eng clock.Clock

	limit int // bytes, hard cap

	// Parameters, in bytes (classic RED operates on average queue size).
	minTh, maxTh int
	maxP         float64
	weight       float64

	avg   float64
	count int // packets since last drop, for the uniform-drop correction

	// Idle-period correction state (the Floyd–Jacobson "m" term): when
	// the queue has sat empty, avg decays as if m small packets had been
	// transmitted into an empty queue, where m = idle time / estimated
	// transmission slot. Without this, avg is only touched on enqueue and
	// a stale high average early-drops the first packets of a new burst.
	emptySince clock.Time // when the queue last became empty
	emptyValid bool       // emptySince is meaningful (queue currently idle)
	txEst      clock.Time // EWMA of back-to-back dequeue spacing (service time)
	lastDeqAt  clock.Time
	busyTail   bool // queue was non-empty after the previous dequeue
}

// NewRED builds a RED queue over a hard byte limit, with the classic
// thresholds min=limit/4, max=3·limit/4, maxP=0.1 and EWMA weight 0.002.
// The clock supplies time for the idle-period average decay and the RNG
// for the drop decisions (deterministic on the simulator).
func NewRED(eng clock.Clock, limitBytes int) *RED {
	if limitBytes <= 0 {
		panic("qdisc: RED limit must be positive")
	}
	return &RED{
		eng:    eng,
		limit:  limitBytes,
		minTh:  limitBytes / 4,
		maxTh:  limitBytes * 3 / 4,
		maxP:   0.1,
		weight: 0.002,
		count:  -1,
	}
}

// Enqueue implements Qdisc with the RED early-drop decision.
func (r *RED) Enqueue(p *pkt.Packet) bool {
	if r.emptyValid {
		// First arrival after an idle period: decay the average by the
		// number of transmission slots the queue sat empty,
		// avg ← avg·(1−w)^m (Floyd & Jacobson §4, the q_time term).
		tx := r.txEst
		if tx <= 0 {
			tx = redFallbackTx
		}
		if idle := r.eng.Now() - r.emptySince; idle > 0 {
			m := float64(idle) / float64(tx)
			r.avg *= math.Pow(1-r.weight, m)
		}
		// The idle span up to now is consumed either way; if this packet
		// is rejected the queue stays empty and the clock restarts here.
		r.emptySince = r.eng.Now()
	}
	r.avg = (1-r.weight)*r.avg + r.weight*float64(r.Bytes())
	switch {
	case r.Bytes()+p.Size > r.limit:
		r.drops++
		r.count = 0
		return false
	case r.avg >= float64(r.maxTh):
		r.drops++
		r.count = 0
		return false
	case r.avg > float64(r.minTh):
		r.count++
		pb := r.maxP * (r.avg - float64(r.minTh)) / float64(r.maxTh-r.minTh)
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.eng.Rand().Float64() < pa {
			r.drops++
			r.count = 0
			return false
		}
	default:
		r.count = -1
	}
	r.push(p)
	r.emptyValid = false
	return true
}

// Dequeue implements Qdisc and feeds the service-time estimate the
// idle-period correction scales by.
func (r *RED) Dequeue() *pkt.Packet {
	p := r.pop()
	if p == nil {
		return nil
	}
	now := r.eng.Now()
	// Back-to-back dequeues (the queue stayed busy in between) are
	// spaced by one link transmission slot — the unit idle time is
	// measured in.
	if r.busyTail && now > r.lastDeqAt {
		gap := now - r.lastDeqAt
		if r.txEst == 0 {
			r.txEst = gap
		} else {
			r.txEst = (3*r.txEst + gap) / 4
		}
	}
	r.lastDeqAt = now
	r.busyTail = r.Len() > 0
	if r.Len() == 0 {
		r.emptySince = now
		r.emptyValid = true
	}
	return p
}
