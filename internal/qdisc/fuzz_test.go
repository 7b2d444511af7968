package qdisc

import (
	"testing"

	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// FuzzSFQ drives the sendbox's default scheduler with an arbitrary
// enqueue/dequeue/re-key interleaving over adversarial flow IDs and
// sizes, and checks the accounting invariants the link relies on:
//
//   - Len and Bytes never go negative;
//   - packet conservation: every accepted packet is eventually either
//     dequeued or dropped from the fattest bucket, never duplicated or
//     lost (accepted == dequeued + internal drops + still queued);
//   - draining the queue empties it exactly (Len == 0 implies Bytes == 0);
//   - every admission verdict and every dequeued packet matches refSFQ,
//     the same scheduler with a flat table that re-keys by rehashing
//     into a fresh second table: SFQ re-keys in place, and must admit
//     and serve exactly as that does.
//
// Each op byte either re-keys (0xF0–0xFF, key = low nibble), dequeues
// (other high-bit bytes) or enqueues a packet whose flow and size derive
// from the byte, so the corpus explores collisions within SFQ's bucket
// array as well as the drop-from-fattest path.
func FuzzSFQ(f *testing.F) {
	f.Add(3, 16, []byte{0x01, 0x02, 0x81, 0x03, 0xFF, 0x04})
	f.Add(1, 1, []byte{0x00, 0x00, 0x80, 0x00})
	f.Add(8, 4, []byte{0x10, 0x11, 0x12, 0x13, 0x90, 0x91, 0x14, 0x15, 0x16})
	f.Add(16, 8, []byte{0x01, 0x02, 0x03, 0x01, 0x04, 0xF3, 0x05, 0x81, 0xF7, 0x02, 0x82, 0x83, 0xF0, 0x84})
	// Twelve flows over four 16-slot groups, re-keyed while all queued:
	// the re-admission order across groups decides who is served first.
	f.Add(64, 64, []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0xF5, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, nbuckets, limit int, ops []byte) {
		if nbuckets <= 0 || nbuckets > 1024 || limit <= 0 || limit > 4096 {
			t.Skip()
		}
		q := NewSFQ(nbuckets, limit)
		ref := newRefSFQ(nbuckets, limit)
		accepted, dequeued, rejected := 0, 0, 0

		check := func(when string) {
			if q.Len() < 0 || q.Bytes() < 0 {
				t.Fatalf("%s: negative accounting: %d pkts, %d bytes", when, q.Len(), q.Bytes())
			}
			if q.Len() == 0 && q.Bytes() != 0 {
				t.Fatalf("%s: empty queue holds %d bytes", when, q.Bytes())
			}
			internalDrops := q.Drops() - rejected
			if accepted != dequeued+internalDrops+q.Len() {
				t.Fatalf("%s: conservation broken: accepted %d != dequeued %d + dropped %d + queued %d",
					when, accepted, dequeued, internalDrops, q.Len())
			}
			if q.Len() != ref.count {
				t.Fatalf("%s: %d packets queued, reference holds %d", when, q.Len(), ref.count)
			}
		}
		dequeue := func() bool {
			p, want := q.Dequeue(), ref.dequeue()
			seq := func(p *pkt.Packet) int64 {
				if p == nil {
					return -1
				}
				return p.Seq
			}
			if seq(p) != seq(want) {
				t.Fatalf("dequeued packet %d, reference dequeued %d (-1: none)", seq(p), seq(want))
			}
			if p != nil {
				dequeued++
			}
			return p != nil
		}

		for i, op := range ops {
			switch {
			case op >= 0xF0:
				key := uint64(op & 0x0F)
				q.SetPerturbation(key)
				ref.rekey(key)
			case op&0x80 != 0:
				dequeue()
			default:
				mk := func() *pkt.Packet {
					return &pkt.Packet{
						Src:   pkt.Addr{Host: uint32(op) * 2654435761, Port: uint16(op)},
						Dst:   pkt.Addr{Host: uint32(op>>3) + 7, Port: 80},
						Proto: pkt.ProtoTCP,
						Size:  40 + int(op&0x7F)*12, // 40..1564 bytes
						Seq:   int64(i),
					}
				}
				ok := q.Enqueue(mk())
				if ok != ref.enqueue(mk()) {
					t.Fatalf("op %d: SFQ admitted %v, the reference did not", i, ok)
				}
				if ok {
					accepted++
				} else {
					rejected++
				}
			}
			check("mid-run")
		}

		// Drain completely: everything still queued must come out.
		for dequeue() {
			check("drain")
		}
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Fatalf("drained queue not empty: %d pkts, %d bytes", q.Len(), q.Bytes())
		}
		check("end")
	})
}

// refSFQ is SFQ with a flat bucket table of packet slices that re-keys
// by rehashing every queued packet, bucket by bucket in slot order,
// into a fresh second table. It is the model FuzzSFQ holds SFQ to.
type refSFQ struct {
	buckets              []*refBucket // nil: never used
	active               []int
	cursor, count, limit int
	perturb              uint64
}

type refBucket struct {
	q       []*pkt.Packet
	deficit int
	active  bool
}

func newRefSFQ(nbuckets, limit int) *refSFQ {
	return &refSFQ{buckets: make([]*refBucket, nbuckets), limit: limit}
}

func (r *refSFQ) bucketOf(p *pkt.Packet) int {
	return int(pkt.FlowHash(p, r.perturb) % uint64(len(r.buckets)))
}

func (r *refSFQ) enqueue(p *pkt.Packet) bool {
	bi := r.bucketOf(p)
	if r.count >= r.limit {
		fat, fatLen := -1, 0
		for _, i := range r.active {
			if l := len(r.buckets[i].q); l > fatLen {
				fat, fatLen = i, l
			}
		}
		if fat == bi || fat < 0 {
			return false
		}
		r.buckets[fat].q = r.buckets[fat].q[1:]
		r.count--
	}
	r.push(bi, p)
	return true
}

func (r *refSFQ) push(bi int, p *pkt.Packet) {
	b := r.buckets[bi]
	if b == nil {
		b = &refBucket{}
		r.buckets[bi] = b
	}
	b.q = append(b.q, p)
	r.count++
	if !b.active {
		b.active, b.deficit = true, pkt.MTU
		r.active = append(r.active, bi)
	}
}

func (r *refSFQ) dequeue() *pkt.Packet {
	for len(r.active) > 0 {
		if r.cursor >= len(r.active) {
			r.cursor = 0
		}
		b := r.buckets[r.active[r.cursor]]
		if len(b.q) == 0 {
			b.active = false
			r.active = append(r.active[:r.cursor], r.active[r.cursor+1:]...)
			continue
		}
		if b.q[0].Size > b.deficit {
			b.deficit += pkt.MTU
			r.cursor++
			continue
		}
		p := b.q[0]
		b.q = b.q[1:]
		b.deficit -= p.Size
		r.count--
		if len(b.q) == 0 {
			b.active = false
			r.active = append(r.active[:r.cursor], r.active[r.cursor+1:]...)
		}
		return p
	}
	return nil
}

func (r *refSFQ) rekey(key uint64) {
	if key == r.perturb {
		return
	}
	r.perturb = key
	if r.count == 0 {
		return
	}
	old := r.buckets
	r.buckets = make([]*refBucket, len(old))
	r.active, r.cursor, r.count = nil, 0, 0
	for _, b := range old {
		if b != nil {
			for _, p := range b.q {
				r.push(r.bucketOf(p), p)
			}
		}
	}
}

// FuzzQdiscAccounting drives each time-aware AQM (CoDel, FQ-CoDel, RED,
// PIE), the class schedulers (WFQ, SP — wrapped in a Meter, so the
// wrapper's pass-through accounting is fuzzed for free) and the
// time-blind disciplines (FIFO, DRR, Prio, SFQ) through
// arbitrary enqueue/dequeue/idle-advance sequences and checks the
// byte-accounting invariants the link and the fluid coupling rely on:
//
//   - Bytes() always equals the sum of queued packet sizes (every packet
//     in one fuzz run has the same size, so the sum is Len()·size — the
//     one formulation that stays checkable when CoDel and FQ-CoDel drop
//     packets internally at dequeue time, where the dropped bytes are
//     otherwise unobservable from outside);
//   - Len() and Bytes() never go negative;
//   - conservation: accepted == dequeued + internal drops + still queued;
//   - WFQ and SP are work-conserving: every Dequeue issued while any
//     class was backlogged returns a packet, so the metered
//     work-conservation ratio is exactly 1.0 at the end of every run.
//
// Op bytes: 0x00–0x7F enqueue (flow = op % 8), 0x80–0xBF dequeue,
// 0xC0–0xFF advance virtual time by 1–64 ms (the idle axis — exactly the
// regime the RED EWMA and PIE drain-window fixes patrol).
func FuzzQdiscAccounting(f *testing.F) {
	f.Add(uint8(0), uint8(100), []byte{0x01, 0x02, 0xC5, 0x81, 0x03, 0xFF, 0x84})
	f.Add(uint8(1), uint8(255), []byte{0x10, 0x11, 0xFF, 0xFF, 0x90, 0x12, 0xC0, 0x91})
	f.Add(uint8(2), uint8(10), []byte{0x00, 0x00, 0x00, 0xD0, 0x80, 0x80, 0x80})
	f.Add(uint8(3), uint8(60), []byte{0x20, 0xC1, 0x20, 0xC1, 0xA0, 0xC1, 0x20, 0xA0})
	f.Add(uint8(4), uint8(120), []byte{0x01, 0x02, 0x03, 0x81, 0x04, 0x05, 0x82, 0x83})
	f.Add(uint8(5), uint8(200), []byte{0x07, 0x06, 0x05, 0x80, 0x04, 0xFF, 0x81, 0x82})
	f.Add(uint8(6), uint8(255), []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x06, 0xC2, 0x82})
	f.Add(uint8(7), uint8(30), []byte{0x00, 0x00, 0x00, 0x01, 0x02, 0x01, 0x80, 0x03, 0x81})
	f.Add(uint8(8), uint8(150), []byte{0x00, 0x03, 0x06, 0x00, 0x01, 0x80, 0xC3, 0x81, 0x82})
	f.Add(uint8(9), uint8(90), []byte{0x01, 0x01, 0x01, 0x02, 0x03, 0x80, 0x04, 0xC1, 0x81})
	f.Fuzz(func(t *testing.T, which, sizeSeed uint8, ops []byte) {
		size := 40 + int(sizeSeed)*5 // 40..1315 bytes, uniform per run
		eng := sim.NewEngine(7)
		// The schedulers key classes off the fuzz packets' source ports
		// (1000 + flow, flow in 0..7), so three classes see collisions.
		classes := []Class{
			{Name: "a", Port: 8000, Weight: 4},
			{Name: "b", Port: 8001, Weight: 2},
			{Name: "c", Port: 8002, Weight: 1},
		}
		byFlow := func(p *pkt.Packet) int { return int(p.Src.Port) % len(classes) }
		var q Qdisc
		var meter *Meter
		switch which % 10 {
		case 0:
			q = NewCoDel(eng, 128)
		case 1:
			q = NewFQCoDel(eng, 16, 128)
		case 2:
			q = NewRED(eng, 128*pkt.MTU)
		case 3:
			p := NewPIE(eng, 128)
			defer p.Stop()
			q = p
		case 4:
			meter = NewMeter(NewWFQ(128, classes, byFlow), classes)
			q = meter
		case 5:
			meter = NewMeter(NewSP(128, classes, byFlow), classes)
			q = meter
		// The time-blind disciplines get small limits, so short inputs
		// reach their overflow paths (the flow queueing ones evict).
		case 6:
			q = NewFIFO(4 * pkt.MTU)
		case 7:
			q = NewDRR(4)
		case 8:
			q = NewPrio(len(classes), 2*pkt.MTU, byFlow)
		case 9:
			q = NewSFQ(16, 4)
		}
		accepted, dequeued, rejected := 0, 0, 0

		check := func(when string) {
			if q.Len() < 0 || q.Bytes() < 0 {
				t.Fatalf("%s: negative accounting: %d pkts, %d bytes", when, q.Len(), q.Bytes())
			}
			if q.Bytes() != q.Len()*size {
				t.Fatalf("%s: bytes %d != %d packets × %d bytes", when, q.Bytes(), q.Len(), size)
			}
			internalDrops := q.Drops() - rejected
			if internalDrops < 0 {
				t.Fatalf("%s: drop counter %d below the %d rejected arrivals", when, q.Drops(), rejected)
			}
			if accepted != dequeued+internalDrops+q.Len() {
				t.Fatalf("%s: conservation broken: accepted %d != dequeued %d + dropped %d + queued %d",
					when, accepted, dequeued, internalDrops, q.Len())
			}
		}

		for _, op := range ops {
			switch {
			case op >= 0xC0: // idle-advance
				eng.RunUntil(eng.Now() + sim.Time(int(op&0x3F)+1)*sim.Millisecond)
			case op >= 0x80: // dequeue
				if q.Dequeue() != nil {
					dequeued++
				}
			default: // enqueue
				if q.Enqueue(mkpkt(int(op)%8, size)) {
					accepted++
				} else {
					rejected++
				}
			}
			check("mid-run")
		}

		for q.Dequeue() != nil {
			dequeued++
			check("drain")
		}
		if q.Len() != 0 || q.Bytes() != 0 {
			t.Fatalf("drained queue not empty: %d pkts, %d bytes", q.Len(), q.Bytes())
		}
		check("end")
		if meter != nil && meter.WorkConservation() != 1.0 {
			t.Fatalf("scheduler not work-conserving: served %d of %d backlogged dequeues",
				meter.Served(), meter.Attempts())
		}
	})
}
