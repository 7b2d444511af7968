// Driver for the qdisc layer: enqueue+dequeue cost per packet of each
// scheduler, held at its limit by 64 backlogged flows in 2 classes
// offering 9 packets for every 8 served. FIFO and SFQ are what
// dumbbell_web and mesh64 run; WFQ, SP and the Meter wrapper are touched
// only by sched_sweep. Each figure includes one pkt.Get/Put pair
// (pkt.getput_ns).
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

const (
	flows = 64
	limit = 1000 // packets
)

var classes = []qdisc.Class{
	{Name: "interactive", Port: 8443, Weight: 4},
	{Name: "bulk", Port: 80, Weight: 1},
}

func packet(i int) *pkt.Packet {
	p := pkt.Get()
	f := uint32(i % flows)
	p.Src = pkt.Addr{Host: 1<<16 + f, Port: 5000}
	p.Dst = pkt.Addr{Host: 1<<20 + f, Port: classes[f%2].Port}
	p.FlowID = uint64(f) + 1
	p.IPID = uint16(i)
	p.Proto = pkt.ProtoTCP
	p.Size = pkt.MTU
	return p
}

// offer enqueues n packets, serving 8 for every 9 offered, so the queue
// sits at its limit and the overflow path runs.
func offer(q qdisc.Qdisc, n int) {
	for i := 0; i < n; i++ {
		if p := packet(i); !q.Enqueue(p) {
			pkt.Put(p) // refused, so still ours
		}
		if i%9 != 8 {
			if p := q.Dequeue(); p != nil {
				pkt.Put(p)
			}
		}
	}
}

func drain(q qdisc.Qdisc) {
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		pkt.Put(p)
	}
}

func timeQdisc(q qdisc.Qdisc) float64 {
	offer(q, 9*limit) // reach the limit before timing
	ns, _ := lb.Time(func(n int) { offer(q, n) })
	return ns
}

func main() {
	lb.Main(func(o lb.Out) error {
		eng := sim.NewEngine(lb.Seed)
		byPort := qdisc.ClassifierByPort(classes)
		timed := func(q qdisc.Qdisc) float64 {
			defer drain(q)
			return timeQdisc(q)
		}
		o["qdisc.fifo_ns"] = timed(qdisc.NewFIFO(limit * pkt.MTU))
		o["qdisc.drr_ns"] = timed(qdisc.NewDRR(limit))
		o["qdisc.fqcodel_ns"] = timed(qdisc.NewFQCoDel(eng, 1024, limit))
		o["qdisc.wfq_ns"] = timed(qdisc.NewWFQ(limit, classes, byPort))
		o["qdisc.sp_ns"] = timed(qdisc.NewSP(limit, classes, byPort))
		o["qdisc.meter_overhead_ns"] = timed(qdisc.NewMeter(qdisc.NewFIFO(limit*pkt.MTU), classes)) - o["qdisc.fifo_ns"]

		sfq := qdisc.NewSFQ(1024, limit)
		defer drain(sfq)
		o["qdisc.sfq_ns"] = timeQdisc(sfq)
		// Drops per enqueue at the limit: 1/9 by construction, so anything
		// else says the driver no longer holds the queue there.
		const offered = 90 * limit
		drops := sfq.Drops()
		offer(sfq, offered)
		o["qdisc.drop_frac"] = float64(sfq.Drops()-drops) / offered

		// Re-keying rehashes every queued packet; the mesh64 sendboxes do
		// it every 2 s of virtual time. Timed on the full queue.
		ns, _ := lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				sfq.SetPerturbation(uint64(i) + 1)
			}
		})
		o["qdisc.sfq_perturb_us"] = ns / 1e3
		return nil
	})
}
