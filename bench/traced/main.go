// The traced run: dumbbell_web's Bundler (SFQ) variant at 5 000 requests,
// assembled from the layers' public constructors with a benchmark-owned
// shim at every boundary - a netem.Receiver around each Receive
// hand-off, a qdisc.Qdisc around Enqueue and Dequeue. The same assembly
// runs with the shims removed, and the difference is the tracing
// overhead. A layer's self time is its spans' duration minus the part
// their child spans cover; what no span covers (the event heap, and the
// work components do in their own timer and link callbacks, which a shim
// cannot see from outside) is trace.engine_and_callbacks.
package main

import (
	"fmt"
	"path/filepath"
	"time"

	"bundler/bench/internal/lb"
	"bundler/internal/bundle"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

const (
	requests = 5000
	linkRate = 96e6
	offered  = 84e6
	rtt      = 50 * sim.Millisecond
	ctlHost  = 1 << 30
	// reps is how many untraced/traced pairs run; medians are reported.
	reps = 3
)

// result is one run of the assembly.
type result struct {
	wall      time.Duration
	pkts      int64
	completed int
	bytes     int64
}

// run builds the dumbbell and drives it until every request completes.
// With t nil no shim exists anywhere on the path.
func run(seed int64, t *tracer) (result, error) {
	eng := sim.NewEngine(seed)
	muxA, muxB, demux := tcp.NewMux(), tcp.NewMux(), netem.NewDemux()
	bdp := int(linkRate / 8 * rtt.Seconds())
	bottleneck := t.recv(link, netem.NewLink(eng, "bottleneck", linkRate, rtt/2,
		t.qdisc(qdisc.NewFIFO(2*bdp)), t.recv(mux, demux)))
	reverse := t.recv(link, netem.NewLink(eng, "reverse", 10e9, rtt/2,
		t.qdisc(qdisc.NewFIFO(1<<26)), t.recv(mux, muxA)))

	sbCtl, rbCtl := pkt.Addr{Host: ctlHost, Port: 1}, pkt.Addr{Host: ctlHost, Port: 2}
	box := bundle.NewSendbox(eng, bundle.Config{Algorithm: "copa", Scheduler: t.qdisc(qdisc.NewSFQ(1024, 1000))},
		bottleneck, sbCtl, rbCtl)
	rb := bundle.NewReceivebox(eng, reverse, rbCtl, sbCtl, 0)
	egress := t.recv(sendbox, box)
	muxA.Register(sbCtl, egress)
	muxB.Register(rbCtl, t.recv(receivebox, rb))
	ingress := netem.NewTap(t.observe(rb.Observe), t.recv(mux, muxB))
	demux.Route(rbCtl.Host, ingress)

	rec := workload.NewRecorder(linkRate, rtt)
	host, flowID := uint32(1<<16), uint64(0)
	workload.Arrivals(eng, workload.PaperWebCDF(), offered, requests, func(size int64) {
		src := pkt.Addr{Host: host, Port: 5000}
		dst := pkt.Addr{Host: host + 1, Port: 80}
		host += 2
		flowID++
		demux.Route(dst.Host, ingress)
		start := eng.Now()
		rcv := tcp.NewReceiver(eng, reverse, dst, src, flowID, size, func(now sim.Time) {
			rec.Record(size, now-start)
		})
		snd := tcp.NewSender(eng, egress, src, dst, flowID, size, tcp.NewEndhostCC("cubic"), func(sim.Time) {
			muxA.Unregister(src)
			muxB.Unregister(dst)
		})
		muxA.Register(src, t.recv(tcpSender, snd))
		muxB.Register(dst, t.recv(tcpReceiver, rcv))
		snd.Start()
	})

	pk0, t0 := pkt.Stats().Gets, time.Now()
	for eng.Now() < 600*sim.Second && rec.Completed < requests {
		eng.RunUntil(eng.Now() + sim.Second)
	}
	res := result{wall: time.Since(t0), pkts: pkt.Stats().Gets - pk0, completed: rec.Completed, bytes: rec.Bytes}
	box.Stop()
	if rec.Completed != requests {
		return res, fmt.Errorf("traced run: %d of %d requests completed", rec.Completed, requests)
	}
	return res, nil
}

func main() {
	lb.Main(func(o lb.Out) error {
		var (
			plain, traced []float64 // wall ns per packet
			self          [numLayers][]float64
			remainder     []float64
			last          *tracer
			lastRes       result
		)
		for i := 0; i < reps; i++ {
			base, err := run(lb.Seed, nil)
			if err != nil {
				return err
			}
			t := newTracer()
			res, err := run(lb.Seed, t)
			if err != nil {
				return err
			}
			if res.pkts != base.pkts || res.bytes != base.bytes {
				return fmt.Errorf("traced run: the shims changed the simulation: %d packets and %d bytes traced, %d and %d untraced",
					res.pkts, res.bytes, base.pkts, base.bytes)
			}
			n := float64(res.pkts)
			plain = append(plain, float64(base.wall)/n)
			traced = append(traced, float64(res.wall)/n)
			for l := range self {
				self[l] = append(self[l], float64(t.self[l])/n)
			}
			remainder = append(remainder, float64(int64(res.wall)-t.rootNs)/n)
			last, lastRes = t, res
		}
		for l, name := range layerNames {
			o["trace."+name+".self_ns_per_pkt"] = lb.Median(self[l])
			o["trace."+name+".spans_per_pkt"] = float64(last.count[l]) / float64(lastRes.pkts)
		}
		o["trace.engine_and_callbacks.ns_per_pkt"] = lb.Median(remainder)
		o["trace.untraced_ns_per_pkt"] = lb.Median(plain)
		o["trace.overhead_frac"] = (lb.Median(traced) - lb.Median(plain)) / lb.Median(plain)
		return last.writeJSONL(filepath.Join(lb.Tmp, "spans.jsonl"))
	})
}
