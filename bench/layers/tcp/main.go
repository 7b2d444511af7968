// Driver for the tcp layer: Cubic senders and their receivers over a
// 10 ms round trip, as back-to-back 100-segment transfers (the web
// workloads are mostly short flows), first lossless, then behind 1 %
// random loss so SACK recovery and RTOs run. Cost is per data segment
// sent, its ACK included. tcp.seg_ns should move pkts_per_s on
// dumbbell_web, the lossy path on bg_users, flow set-up on mesh64 and
// sched_sweep (one-request flows).
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

const (
	flowSegs = 100
	oneWay   = 5 * sim.Millisecond
)

// path is one sender-receiver pair's wiring: forward and reverse delay
// pipes that hand to whichever flow is current.
type path struct {
	eng      *sim.Engine
	fwd, rev netem.Receiver
	snd      *tcp.Sender
	rcv      *tcp.Receiver
	flows    uint64
	sent     int
	retx     int
}

func newPath(seed int64, loss float64) *path {
	p := &path{eng: sim.NewEngine(seed)}
	p.fwd = netem.NewPipe(p.eng, oneWay, netem.ReceiverFunc(func(k *pkt.Packet) { p.rcv.Receive(k) }))
	if loss > 0 {
		p.fwd = netem.NewLossy(p.eng, loss, p.fwd)
	}
	p.rev = netem.NewPipe(p.eng, oneWay, netem.ReceiverFunc(func(k *pkt.Packet) { p.snd.Receive(k) }))
	return p
}

// transfer runs one flow of the given size to completion.
func (p *path) transfer(size int64) {
	p.flows++
	src := pkt.Addr{Host: 1 << 16, Port: 5000}
	dst := pkt.Addr{Host: 1<<16 + 1, Port: 80}
	p.rcv = tcp.NewReceiver(p.eng, p.rev, dst, src, p.flows, size, nil)
	p.snd = tcp.NewSender(p.eng, p.fwd, src, dst, p.flows, size, tcp.NewEndhostCC("cubic"), nil)
	p.snd.Start()
	p.eng.Run()
	if !p.snd.Done() {
		panic("tcp driver: transfer did not complete")
	}
	p.sent += p.snd.DataSent
	p.retx += p.snd.Retransmits
}

// segments sends about n segments as 100-segment flows.
func (p *path) segments(n int) {
	for ; n > 0; n -= flowSegs {
		p.transfer(flowSegs * pkt.MSS)
	}
}

func main() {
	lb.Main(func(o lb.Out) error {
		// Time reports per unit of n; the flows round n up to whole
		// flows, so scale by the segments actually sent.
		perSegment := func(p *path) (ns, allocs float64) {
			var asked int
			ns, allocs = lb.Time(func(n int) {
				asked, p.sent = n, 0
				p.segments(n)
			})
			f := float64(asked) / float64(p.sent)
			return ns * f, allocs * f
		}
		o["tcp.seg_ns"], o["tcp.seg_allocs"] = perSegment(newPath(lb.Seed, 0))
		lossy := newPath(lb.Seed, 0.01)
		o["tcp.lossy_seg_ns"], _ = perSegment(lossy)
		lossy.sent, lossy.retx = 0, 0
		lossy.segments(200 * flowSegs)
		o["tcp.retx_frac"] = float64(lossy.retx) / float64(lossy.sent)

		setup := newPath(lb.Seed, 0)
		o["tcp.flow_setup_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				setup.transfer(1)
			}
		})
		return nil
	})
}
