package shard

import (
	"fmt"
	"strings"
	"testing"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// delivery is one observed packet arrival, for comparing runs.
type delivery struct {
	at   sim.Time
	flow uint64
	seq  int64
}

// buildRing wires n partitions in a ring: partition i emits packets
// toward partition (i+1) mod n through a port with the given latency,
// on a schedule derived from its own RNG stream. Each destination keeps
// its own delivery log (partitions share no mutable state, so the logs
// must be per-partition too); the returned slice is indexed by the
// receiving partition.
func buildRing(n int, latency sim.Time, seed int64, perPart int) (*World, []*[]delivery) {
	w := NewWorld()
	parts := make([]*Part, n)
	logs := make([]*[]delivery, n)
	for i := range parts {
		parts[i] = w.AddPart(MixSeed(seed, i))
		logs[i] = &[]delivery{}
	}
	ports := make([]*Port, n)
	for i := range parts {
		tgt := parts[(i+1)%n]
		log := logs[(i+1)%n]
		sink := netem.ReceiverFunc(func(p *pkt.Packet) {
			*log = append(*log, delivery{at: tgt.Eng.Now(), flow: p.FlowID, seq: p.Seq})
			pkt.Put(p)
		})
		ports[i] = w.NewPort(parts[i], tgt, sink, latency)
	}
	for i, pa := range parts {
		pa := pa
		port := ports[i]
		for k := 0; k < perPart; k++ {
			// Jittered emission times from the partition's own stream keep
			// the schedule irregular without depending on shard count.
			at := sim.Time(pa.Eng.Rand().Int63n(int64(sim.Second)))
			flow, seq := uint64(i), int64(k)
			clock.At(pa.Eng, at, func() {
				p := pa.Pool.Get()
				p.FlowID, p.Seq = flow, seq
				port.Receive(p)
			})
		}
	}
	return w, logs
}

// TestShardCountInvariant runs the same ring under every shard count and
// requires identical delivery logs — the package's core contract.
func TestShardCountInvariant(t *testing.T) {
	const n, perPart = 5, 40
	var want []delivery
	for _, shards := range []int{1, 2, 3, 5, 8} {
		w, logs := buildRing(n, 10*sim.Millisecond, 42, perPart)
		w.SetShards(shards)
		w.Run(3*sim.Second, nil)
		var got []delivery
		for _, log := range logs {
			got = append(got, *log...)
		}
		if len(got) != n*perPart {
			t.Fatalf("shards=%d: delivered %d packets, want %d", shards, len(got), n*perPart)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: delivery %d = %+v, want %+v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestWindowBound checks messages are delivered exactly one latency
// after emission, i.e. windowing adds no artificial delay, and that
// messages arriving at the same instant are delivered in (source
// partition, emission) order — also when one source's tied messages
// cross ports of different latency, emitted at different times.
func TestWindowBound(t *testing.T) {
	w := NewWorld()
	a := w.AddPart(1)
	b := w.AddPart(2)
	c := w.AddPart(3)
	d := w.AddPart(4)
	var arrived []sim.Time
	var flows []uint64
	sink := netem.ReceiverFunc(func(p *pkt.Packet) {
		arrived = append(arrived, b.Eng.Now())
		flows = append(flows, p.FlowID)
		pkt.Put(p)
	})
	const emit = 40 * sim.Millisecond
	send := func(at sim.Time, pa *Part, port *Port, ids ...uint64) {
		clock.At(pa.Eng, at, func() {
			for _, id := range ids {
				p := pa.Pool.Get()
				p.FlowID = id
				port.Receive(p)
			}
		})
	}
	send(emit, c, w.NewPort(c, b, sink, 25*sim.Millisecond), 3, 4)
	send(emit, a, w.NewPort(a, b, sink, 25*sim.Millisecond), 1, 2)
	// d's slower port is declared second but fires first, in the same
	// window: flow 5 leaves 5ms before flow 6, and both arrive with the
	// rest.
	fast := w.NewPort(d, b, sink, 25*sim.Millisecond)
	send(emit-5*sim.Millisecond, d, w.NewPort(d, b, sink, 30*sim.Millisecond), 5)
	send(emit, d, fast, 6)
	w.Run(sim.Second, nil)
	for _, at := range arrived {
		if want := emit + 25*sim.Millisecond; at != want {
			t.Fatalf("arrival at %v, want %v", at, want)
		}
	}
	if got := fmt.Sprint(flows); got != "[1 2 3 4 5 6]" {
		t.Fatalf("same-instant delivery order %s, want [1 2 3 4 5 6]", got)
	}
	if la := w.Lookahead(); la != 25*sim.Millisecond {
		t.Fatalf("lookahead %v, want 25ms", la)
	}
}

// TestLookaheadViolationPanics drives a boundary crossing whose declared
// arrival precedes the window barrier; drain must refuse it loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	w := NewWorld()
	a := w.AddPart(1)
	b := w.AddPart(2)
	sink := netem.ReceiverFunc(func(p *pkt.Packet) { pkt.Put(p) })
	port := w.NewPort(a, b, sink, 50*sim.Millisecond)
	clock.At(a.Eng, 10*sim.Millisecond, func() {
		// A message claiming instant arrival, as a bug in Port would
		// produce: 10ms is inside the first [0, 50ms) window.
		a.send(a.Eng.Now(), port, a.Pool.Get())
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if !strings.Contains(r.(string), "lookahead violation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	w.Run(sim.Second, nil)
}

// TestPoolHandoff verifies barrier ownership transfer: a packet minted
// by partition A's pool and released on partition B must land in B's
// free list, with the transfer counters balancing.
func TestPoolHandoff(t *testing.T) {
	w := NewWorld()
	a := w.AddPart(1)
	b := w.AddPart(2)
	port := w.NewPort(a, b, netem.ReceiverFunc(func(p *pkt.Packet) { pkt.Put(p) }), 10*sim.Millisecond)
	clock.At(a.Eng, 5*sim.Millisecond, func() { port.Receive(a.Pool.Get()) })
	w.Run(sim.Second, nil)
	if w.Transferred() != 1 {
		t.Fatalf("Transferred() = %d, want 1", w.Transferred())
	}
	as, aIn, aOut := a.Pool.Stats()
	bs, bIn, bOut := b.Pool.Stats()
	if as.Gets != 1 || aOut != 1 || aIn != 0 {
		t.Fatalf("source pool: stats %+v in %d out %d, want 1 get / 1 out", as, aIn, aOut)
	}
	if bs.Puts != 1 || bIn != 1 || bOut != 0 {
		t.Fatalf("dest pool: stats %+v in %d out %d, want 1 put / 1 in", bs, bIn, bOut)
	}
	// The released packet must be reissued by B, not reallocated.
	p := b.Pool.Get()
	bs, _, _ = b.Pool.Stats()
	if bs.News != 0 {
		t.Fatalf("dest pool allocated fresh storage (news=%d); hand-off lost the packet", bs.News)
	}
	pkt.Put(p)
}

// TestShardsClamp pins SetShards' clamping to [1, partitions].
func TestShardsClamp(t *testing.T) {
	w := NewWorld()
	for i := 0; i < 3; i++ {
		w.AddPart(int64(i))
	}
	w.SetShards(0)
	if got := w.Shards(); got != 1 {
		t.Fatalf("SetShards(0): Shards() = %d, want 1", got)
	}
	w.SetShards(64)
	if got := w.Shards(); got != 3 {
		t.Fatalf("SetShards(64) with 3 parts: Shards() = %d, want 3", got)
	}
}

// TestPortValidation pins the construction panics.
func TestPortValidation(t *testing.T) {
	w := NewWorld()
	a := w.AddPart(1)
	b := w.AddPart(2)
	sink := netem.ReceiverFunc(func(p *pkt.Packet) {})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero latency", func() { w.NewPort(a, b, sink, 0) })
	mustPanic("same partition", func() { w.NewPort(a, a, sink, sim.Millisecond) })
	mustPanic("nil dst", func() { w.NewPort(a, b, nil, sim.Millisecond) })
	mustPanic("empty world", func() { NewWorld().Run(sim.Second, nil) })
}

// TestMixSeedStreams checks seed derivation is stable and collision-free
// across a realistic partition range.
func TestMixSeedStreams(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(1); seed <= 3; seed++ {
		for part := 0; part < 256; part++ {
			s := MixSeed(seed, part)
			if prior, dup := seen[s]; dup {
				t.Fatalf("MixSeed collision: %d (earlier case %d)", s, prior)
			}
			seen[s] = part
			if s2 := MixSeed(seed, part); s2 != s {
				t.Fatalf("MixSeed not stable: %d then %d", s, s2)
			}
		}
	}
}
