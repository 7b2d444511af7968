// Package shard runs a discrete-event simulation split across several
// sim.Engine partitions that advance in lock-step windows — conservative
// parallel DES in the Chandy–Misra–Bryant tradition.
//
// A World owns N partitions (Part), each with its own engine, RNG
// stream, and packet pool. Partitions advance together through closed
// time windows whose width is bounded by the world's lookahead: the
// minimum declared latency over all cross-partition Ports. Within a
// window the partitions are independent — no shared mutable state — so
// they can run on separate goroutines. A packet crossing partitions
// becomes a timestamped message appended to the source partition's
// outbox; outboxes are drained at the window barrier (single-threaded):
// each message is ownership-transferred to the destination's pool and
// injected into the destination engine through its port's lane.
//
// The lookahead argument is what makes this safe: a message emitted at
// any time t inside a window [start, end] travels with latency ≥
// lookahead ≥ (end − start), so it arrives at or after end — the next
// window's territory — and injecting it at the barrier can never be
// late. Run enforces this with a panic rather than trusting it.
//
// Determinism does not depend on the worker count: each partition's
// execution within a window is a function of its own prior state, and
// the barrier injects messages in a fixed order — partitions by ID, each
// outbox in emission order — so each destination engine stamps its
// arrivals with (time, seq) keys whose seq follows (source partition,
// emission). The engine's heap then delivers them by (arrival time,
// source partition, emission), with no sort at the barrier. Running
// shards=1 and shards=N therefore produces byte-identical results — the
// property the scenario-level determinism tests pin down.
package shard

import (
	"fmt"
	"sync"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// maxOutbox bounds a partition's per-window outbox. Cross-partition
// links are rate-limited, so a window can only produce a bounded number
// of crossings; blowing past this means a component is emitting packets
// outside the link discipline (or the window width is wrong).
const maxOutbox = 1 << 20

// message is one cross-partition packet in flight between windows.
type message struct {
	arrive sim.Time
	port   *Port
	p      *pkt.Packet
}

// Part is one partition: an engine, the packet pool that owns the
// partition's in-flight packets, and the outbox of messages it has
// emitted toward other partitions this window. Exactly one goroutine
// drives a Part within a window; the barrier between windows is the
// only cross-partition synchronization point.
type Part struct {
	// ID is the partition's stable index in its World (creation order).
	// RNG streams and the barrier's injection order key off it, so it
	// must not depend on the shard count.
	ID int
	// Eng is the partition's private event engine.
	Eng *sim.Engine
	// Pool owns the packets this partition mints.
	Pool *pkt.Pool

	outbox []message
}

func (pa *Part) send(arrive sim.Time, port *Port, p *pkt.Packet) {
	if len(pa.outbox) >= maxOutbox {
		panic(fmt.Sprintf("shard: partition %d outbox exceeds %d messages in one window", pa.ID, maxOutbox))
	}
	pa.outbox = append(pa.outbox, message{arrive: arrive, port: port, p: p})
}

// Port is a cross-partition edge endpoint: a netem.Receiver living on
// the source partition that delivers packets to dst on the target
// partition after latency. The crossing's propagation delay lives here
// and nowhere else (an upstream Link carries delay 0), and it is the
// edge's contribution to the world's lookahead. A port's arrivals never
// go backwards (fixed latency, monotone source clock), so the barrier
// injects them through one lane on the target engine.
type Port struct {
	src     *Part
	tgt     *Part
	dst     netem.Receiver
	lane    clock.Lane
	latency sim.Time
}

// NewPort declares a cross-partition edge from src to tgt with the given
// minimum transit latency, delivering into dst on the target partition.
// Zero or negative latency panics: conservative windows need every
// crossing to take positive time.
func (w *World) NewPort(src, tgt *Part, dst netem.Receiver, latency sim.Time) *Port {
	if latency <= 0 {
		panic("shard: port latency must be positive (it bounds the lookahead)")
	}
	if src == tgt {
		panic("shard: port endpoints must be distinct partitions")
	}
	if dst == nil {
		panic("shard: port needs a destination receiver")
	}
	pt := &Port{src: src, tgt: tgt, dst: dst, lane: tgt.Eng.NewLane(), latency: latency}
	w.ports = append(w.ports, pt)
	return pt
}

// Receive implements netem.Receiver: it records the packet for the
// barrier, to arrive one latency from now.
func (pt *Port) Receive(p *pkt.Packet) {
	pt.src.send(pt.src.Eng.Now()+pt.latency, pt, p)
}

// World is a set of partitions advancing in lock-step windows.
type World struct {
	parts  []*Part
	ports  []*Port
	shards int

	transferred int64

	running bool
}

// NewWorld returns an empty world. Add partitions and ports, wire the
// topology, then Run.
func NewWorld() *World { return &World{shards: 1} }

// AddPart creates a partition with a fresh engine seeded with seed and
// its own packet pool. Seeds should be derived from the experiment seed
// and the partition's stable identity (see MixSeed), never from the
// shard count.
func (w *World) AddPart(seed int64) *Part {
	pa := &Part{ID: len(w.parts), Eng: sim.NewEngine(seed), Pool: &pkt.Pool{}}
	w.parts = append(w.parts, pa)
	return pa
}

// SetShards sets how many worker goroutines drive the partitions
// (partition i runs on worker i mod shards). Values are clamped to
// [1, partitions]. The shard count affects scheduling only — never
// physics — so any value yields byte-identical results.
func (w *World) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if len(w.parts) > 0 && n > len(w.parts) {
		n = len(w.parts)
	}
	w.shards = n
}

// Shards reports the effective worker count.
func (w *World) Shards() int {
	if w.shards > len(w.parts) && len(w.parts) > 0 {
		return len(w.parts)
	}
	return w.shards
}

// Lookahead returns the window bound: the minimum latency over all
// declared ports, or zero when the world has no cross-partition edges
// (windows then default to one second, purely as a check cadence).
func (w *World) Lookahead() sim.Time {
	var la sim.Time
	for _, pt := range w.ports {
		if la == 0 || pt.latency < la {
			la = pt.latency
		}
	}
	return la
}

// Transferred reports how many cross-partition messages have been
// drained at window barriers so far — the pool-conservation tests use
// it to prove hand-offs actually happened.
func (w *World) Transferred() int64 { return w.transferred }

// deliverMsg is the injected-event trampoline: a0 is the destination
// netem.Receiver, a1 the packet.
func deliverMsg(a0, a1 any) { a0.(netem.Receiver).Receive(a1.(*pkt.Packet)) }

// drain injects every partition's outbox into the destination engines.
// It runs single-threaded at the window barrier; end is the barrier time
// every engine has reached. It visits partitions in ID order and each
// outbox in emission order, so a destination engine stamps the messages
// it receives with seq numbers in (source partition, emission) order.
// The engine's (at, seq) heap therefore pops them by (arrival, source
// partition, emission) — the merge order, with no sort here — after any
// equal arrival from an earlier barrier, which holds a lower seq. Each
// port's lane, whose arrivals never decrease, keeps the (at, seq) stamp
// CallAt would give while only its earliest event sits in the heap.
func (w *World) drain(end sim.Time) {
	for _, pa := range w.parts {
		for i := range pa.outbox {
			m := &pa.outbox[i]
			if m.arrive < end {
				panic(fmt.Sprintf("shard: lookahead violation: message from partition %d arrives at %v, before window bound %v",
					pa.ID, m.arrive, end))
			}
			pt := m.port
			pkt.Transfer(m.p, pt.tgt.Pool)
			pt.lane.CallAt(m.arrive, deliverMsg, pt.dst, m.p)
			*m = message{} // drop the packet ref
		}
		w.transferred += int64(len(pa.outbox))
		pa.outbox = pa.outbox[:0]
	}
}

// Run advances every partition in lock-step windows until check reports
// true (evaluated at each barrier, before the window — matching
// Fabric.RunUntilDone's cadence) or the horizon passes. It returns the
// stop time. With ports declared, the window width is
// min(lookahead, 1s); without, it is one second, so a one-partition
// world reproduces the legacy single-engine run loop exactly.
func (w *World) Run(horizon sim.Time, check func() bool) sim.Time {
	if len(w.parts) == 0 {
		panic("shard: world has no partitions")
	}
	if w.running {
		panic("shard: Run re-entered")
	}
	w.running = true
	defer func() { w.running = false }()

	window := sim.Second
	if la := w.Lookahead(); la > 0 && la < window {
		window = la
	}

	shards := w.Shards()
	var (
		workCh []chan sim.Time
		wg     sync.WaitGroup
	)
	if shards > 1 {
		workCh = make([]chan sim.Time, shards)
		for i := range workCh {
			workCh[i] = make(chan sim.Time)
			go func(worker int, ch chan sim.Time) {
				for end := range ch {
					for p := worker; p < len(w.parts); p += shards {
						w.parts[p].Eng.RunUntil(end)
					}
					wg.Done()
				}
			}(i, workCh[i])
		}
		defer func() {
			for _, ch := range workCh {
				close(ch)
			}
		}()
	}

	now := w.parts[0].Eng.Now()
	for now < horizon {
		if check != nil && check() {
			break
		}
		end := now + window
		if end > horizon {
			end = horizon
		}
		if shards > 1 {
			wg.Add(shards)
			for _, ch := range workCh {
				ch <- end
			}
			wg.Wait()
		} else {
			for _, pa := range w.parts {
				pa.Eng.RunUntil(end)
			}
		}
		w.drain(end)
		now = end
	}
	return now
}

// MixSeed derives a partition's RNG seed from the experiment seed and
// the partition's stable identity (splitmix64 finalizer). Keying by
// partition ID — never by shard count — keeps random streams identical
// across shard configurations.
func MixSeed(seed int64, part int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(part+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
