// Driver for the pkt layer: the packet pools and the two hashes every
// packet pays (epoch boundary at both boxes, flow bucket at every SFQ).
// Should move pkts_per_s and allocs_per_pkt on every workload; the
// global pool's counters are shared by concurrent engines, so contention
// shows on sched_sweep.
package main

import (
	"bundler/bench/internal/lb"
	"bundler/internal/pkt"
)

var sink uint64

func main() {
	lb.Main(func(o lb.Out) error {
		o["pkt.getput_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				pkt.Put(pkt.Get())
			}
		})
		var pool pkt.Pool
		o["pkt.pool_getput_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				pool.Put(pool.Get())
			}
		})
		p := pkt.Get()
		defer pkt.Put(p)
		p.Src, p.Dst = pkt.Addr{Host: 1 << 16, Port: 5000}, pkt.Addr{Host: 1<<16 + 1, Port: 80}
		o["pkt.epochhash_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				p.IPID = uint16(i)
				sink += pkt.EpochHash(p)
			}
		})
		o["pkt.flowhash_ns"], _ = lb.Time(func(n int) {
			for i := 0; i < n; i++ {
				p.Src.Host = uint32(i)
				sink += pkt.FlowHash(p, 0x9e3779b97f4a7c15)
			}
		})
		return nil
	})
}
