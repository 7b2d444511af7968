package qdisc

import "bundler/internal/pkt"

// DRR implements Deficit Round Robin (Shreedhar & Varghese, [46] in the
// paper): per-flow queues served round-robin with a byte quantum,
// approximating fair queueing in O(1) per packet. Compared to SFQ it keys
// flows exactly (no stochastic bucket collisions) at the cost of a map.
type DRR struct {
	tally
	flows   map[uint64]*drrFlow // the active flows
	free    *drrFlow            // drained flows' records, for the next new flow
	active  []uint64
	cursor  int
	quantum int
	limit   int // total packets
}

type drrFlow struct {
	pktQueue
	deficit int
	active  bool
	next    *drrFlow // the free list
}

// NewDRR builds a DRR scheduler with a one-MTU quantum.
func NewDRR(limitPackets int) *DRR {
	if limitPackets <= 0 {
		panic("qdisc: DRR limit must be positive")
	}
	return &DRR{flows: make(map[uint64]*drrFlow), quantum: pkt.MTU, limit: limitPackets}
}

func (d *DRR) keyOf(p *pkt.Packet) uint64 { return pkt.FlowHash(p, 0) }

// Enqueue implements Qdisc; overflow drops from the longest flow.
func (d *DRR) Enqueue(p *pkt.Packet) bool {
	key := d.keyOf(p)
	if d.count >= d.limit {
		d.drops++
		fat := d.fattest()
		if fat == key || fat == 0 {
			return false
		}
		d.discard(d.flows[fat].pop())
	}
	f := d.flows[key]
	if f == nil {
		if f = d.free; f != nil {
			d.free, f.next = f.next, nil
		} else {
			f = &drrFlow{}
		}
		d.flows[key] = f
	}
	f.push(p)
	d.in(p)
	if !f.active {
		f.active = true
		f.deficit = d.quantum
		d.active = append(d.active, key)
	}
	return true
}

func (d *DRR) fattest() uint64 {
	var best uint64
	bestBytes := 0
	for _, k := range d.active {
		if f := d.flows[k]; f.Bytes() > bestBytes {
			best, bestBytes = k, f.Bytes()
		}
	}
	return best
}

// Dequeue implements Qdisc.
func (d *DRR) Dequeue() *pkt.Packet {
	for len(d.active) > 0 {
		if d.cursor >= len(d.active) {
			d.cursor = 0
		}
		key := d.active[d.cursor]
		f := d.flows[key]
		if f.Len() == 0 {
			d.retire(key, f)
			continue
		}
		if f.peek().Size > f.deficit {
			f.deficit += d.quantum
			d.cursor++
			continue
		}
		p := f.pop()
		f.deficit -= p.Size
		d.out(p)
		if f.Len() == 0 {
			d.retire(key, f)
		}
		return p
	}
	return nil
}

// retire takes the drained flow f under key, at the cursor, off the
// active list and the map, and keeps its record for the next new flow:
// the map holds only active flows, and a flow that drains between
// packets costs no allocation.
func (d *DRR) retire(key uint64, f *drrFlow) {
	f.active = false
	delete(d.flows, key)
	d.active = append(d.active[:d.cursor], d.active[d.cursor+1:]...)
	f.next, d.free = d.free, f
}
