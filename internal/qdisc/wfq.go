package qdisc

import (
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// Class describes one scheduler traffic class: the packets whose
// destination port matches Port, weighted Weight in WFQ's service
// shares. Strict priority (SP) and the Meter wrapper reuse the same
// declaration; SP ignores the weight and serves classes in slice order.
type Class struct {
	Name   string
	Port   uint16
	Weight float64
}

// ClassifierByPort maps a packet to the index of the class whose Port
// matches its destination port; unmatched packets fall to the last
// class (the lowest WFQ weight / SP priority by convention).
func ClassifierByPort(classes []Class) Classifier {
	byPort := make(map[uint16]int, len(classes))
	for i, c := range classes {
		byPort[c.Port] = i
	}
	last := len(classes) - 1
	return func(p *pkt.Packet) int {
		if i, ok := byPort[p.Dst.Port]; ok {
			return i
		}
		return last
	}
}

// WFQ is weighted fair queueing over a fixed class set, using
// self-clocked virtual finish times (SCFQ, Golestani '94): an arriving
// packet is stamped finish = max(V, class's last finish) + size/weight,
// where V is the finish tag of the packet most recently dequeued, and
// dequeue serves the earliest finish tag. Long-run throughput shares
// converge to the configured weights whenever the classes stay
// backlogged — the §7.2 "flexible queueing policies" family extended
// from strict priority to proportional shares.
type WFQ struct {
	tally
	classes  []wfqClass
	classify Classifier
	limit    int     // total packets
	vtime    float64 // finish tag of the last dequeued packet
}

type wfqClass struct {
	pktQueue
	weight  float64
	fin     sim.FIFO[float64] // finish tags of the queued packets, oldest first
	lastFin float64
}

// NewWFQ builds a WFQ scheduler holding at most limitPackets across all
// classes. Every class weight must be positive; classify must map
// packets to a class index (out-of-range results clamp to the last
// class). It panics on invalid construction; user-supplied specs are
// validated by Parse and the topo compiler first.
func NewWFQ(limitPackets int, classes []Class, classify Classifier) *WFQ {
	if limitPackets <= 0 {
		panic("qdisc: WFQ limit must be positive")
	}
	if len(classes) == 0 {
		panic("qdisc: WFQ needs at least one class")
	}
	w := &WFQ{classes: make([]wfqClass, len(classes)), classify: classify, limit: limitPackets}
	for i, c := range classes {
		if c.Weight <= 0 {
			panic("qdisc: WFQ class weight must be positive")
		}
		w.classes[i].weight = c.Weight
	}
	return w
}

func (w *WFQ) clampClass(p *pkt.Packet) int {
	i := w.classify(p)
	if i < 0 || i >= len(w.classes) {
		i = len(w.classes) - 1
	}
	return i
}

// Enqueue implements Qdisc; overflow drops from the class holding the
// most bytes (the SFQ/DRR drop-from-fattest rule), rejecting the
// arrival itself when its own class is the fattest.
func (w *WFQ) Enqueue(p *pkt.Packet) bool {
	idx := w.clampClass(p)
	if w.count >= w.limit {
		w.drops++
		fat := w.fattest()
		if fat == idx {
			return false
		}
		w.discard(w.classes[fat].pop())
	}
	cl := &w.classes[idx]
	start := w.vtime
	if cl.lastFin > start {
		start = cl.lastFin
	}
	fin := start + float64(p.Size)/cl.weight
	cl.lastFin = fin
	cl.push(p)
	cl.fin.Push(fin)
	w.in(p)
	return true
}

func (w *WFQ) fattest() int {
	best, bestBytes := 0, -1
	for i := range w.classes {
		if w.classes[i].Bytes() > bestBytes {
			best, bestBytes = i, w.classes[i].Bytes()
		}
	}
	return best
}

// pop removes the head packet and its finish tag.
func (cl *wfqClass) pop() *pkt.Packet {
	cl.fin.Pop()
	return cl.pktQueue.pop()
}

// Dequeue implements Qdisc: the backlogged class with the earliest head
// finish tag wins (first declared breaks ties deterministically).
func (w *WFQ) Dequeue() *pkt.Packet {
	best := -1
	bestFin := 0.0
	for i := range w.classes {
		cl := &w.classes[i]
		if cl.Len() == 0 {
			continue
		}
		if fin := cl.fin.Peek(); best < 0 || fin < bestFin {
			best, bestFin = i, fin
		}
	}
	if best < 0 {
		return nil
	}
	p := w.classes[best].pop()
	w.vtime = bestFin
	w.out(p)
	if w.count == 0 {
		// Idle reset keeps the virtual clock small over long runs, so tag
		// arithmetic never loses float precision.
		w.vtime = 0
		for i := range w.classes {
			w.classes[i].lastFin = 0
		}
	}
	return p
}
