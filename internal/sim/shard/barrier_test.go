package shard

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// plan is a barrier test's world, fixed before Run: the partition
// count, the ports, and when each source sends through which port.
type plan struct {
	parts int
	ports []planPort
	emits []planEmit
}

type planPort struct {
	src, tgt int
	latency  sim.Time
}

// planEmit sends a burst of n packets through port at time at.
type planEmit struct {
	port int
	at   sim.Time
	n    int
}

// emission is a source's record of one packet it sent: its k-th.
type emission struct {
	tgt, k         int
	emitAt, arrive sim.Time
}

// logEntry is one event a target partition observed: the k-th emission
// of partition src, or a local event (src = -1).
type logEntry struct {
	at     sim.Time
	src, k int
}

// runPlan builds pl's world, arms a local event on each target at every
// instant a crossing is due there, runs it at the given shard count and
// returns each target's log, each source's emission record, each
// target's local-event instants and the window width.
func runPlan(pl plan, shards int) (logs [][]logEntry, sent [][]emission, locals [][]sim.Time, window sim.Time) {
	w := NewWorld()
	parts := make([]*Part, pl.parts)
	for i := range parts {
		parts[i] = w.AddPart(MixSeed(7, i))
	}
	// Each slice element is touched by one partition only, so the
	// workers share no mutable state.
	logs = make([][]logEntry, pl.parts)
	sent = make([][]emission, pl.parts)
	locals = make([][]sim.Time, pl.parts)

	ports := make([]*Port, len(pl.ports))
	for i, pp := range pl.ports {
		tgt := pp.tgt
		sink := netem.ReceiverFunc(func(p *pkt.Packet) {
			logs[tgt] = append(logs[tgt], logEntry{at: parts[tgt].Eng.Now(), src: int(p.FlowID), k: int(p.Seq)})
			pkt.Put(p)
		})
		ports[i] = w.NewPort(parts[pp.src], parts[tgt], sink, pp.latency)
	}

	due := make([]map[sim.Time]bool, pl.parts)
	for i := range due {
		due[i] = map[sim.Time]bool{}
	}
	horizon := sim.Time(0)
	for _, e := range pl.emits {
		pp, port, n := pl.ports[e.port], ports[e.port], e.n
		src := parts[pp.src]
		clock.At(src.Eng, e.at, func() {
			for j := 0; j < n; j++ {
				now := src.Eng.Now()
				k := len(sent[pp.src])
				sent[pp.src] = append(sent[pp.src], emission{tgt: pp.tgt, k: k, emitAt: now, arrive: now + pp.latency})
				p := src.Pool.Get()
				p.FlowID, p.Seq = uint64(pp.src), int64(k)
				port.Receive(p)
			}
		})
		at := e.at + pp.latency
		due[pp.tgt][at] = true
		if at > horizon {
			horizon = at
		}
	}
	for tgt, instants := range due {
		for at := range instants {
			locals[tgt] = append(locals[tgt], at)
		}
		sort.Slice(locals[tgt], func(i, j int) bool { return locals[tgt][i] < locals[tgt][j] })
		for _, at := range locals[tgt] {
			clock.At(parts[tgt].Eng, at, func() {
				logs[tgt] = append(logs[tgt], logEntry{at: at, src: -1})
			})
		}
	}

	window = w.Lookahead()
	w.SetShards(shards)
	w.Run(horizon+window+1, nil)
	return logs, sent, locals, window
}

// wantLogs is the delivery order the barrier has always produced,
// computed from what the sources recorded. Each barrier's crossings are
// ordered by the merge comparator (arrival, source ID, emission index);
// a crossing is drained at the barrier closing the window it was
// emitted in, so equal arrivals from an earlier barrier come first; and
// a local event armed before Run precedes every crossing at its instant.
func wantLogs(sent [][]emission, locals [][]sim.Time, window sim.Time) [][]logEntry {
	type keyed struct {
		logEntry
		local   bool
		barrier sim.Time
	}
	// Window b holds the events in (b·window, (b+1)·window]; the first
	// also holds time zero.
	barrier := func(t sim.Time) sim.Time {
		if t == 0 {
			return 0
		}
		return (t - 1) / window
	}
	want := make([][]logEntry, len(locals))
	for tgt := range want {
		var all []keyed
		for _, at := range locals[tgt] {
			all = append(all, keyed{logEntry: logEntry{at: at, src: -1}, local: true})
		}
		for src, recs := range sent {
			for _, r := range recs {
				if r.tgt == tgt {
					all = append(all, keyed{logEntry: logEntry{at: r.arrive, src: src, k: r.k}, barrier: barrier(r.emitAt)})
				}
			}
		}
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			switch {
			case a.at != b.at:
				return a.at < b.at
			case a.local != b.local:
				return a.local
			case a.barrier != b.barrier:
				return a.barrier < b.barrier
			case a.src != b.src:
				return a.src < b.src
			}
			return a.k < b.k
		})
		for _, e := range all {
			want[tgt] = append(want[tgt], e.logEntry)
		}
	}
	return want
}

// checkPlan runs pl at the given shard count, requires every target's
// log to match wantLogs, and returns the logs and the emission records.
func checkPlan(t *testing.T, pl plan, shards int) ([][]logEntry, [][]emission) {
	t.Helper()
	logs, sent, locals, window := runPlan(pl, shards)
	want := wantLogs(sent, locals, window)
	for tgt := range want {
		if len(logs[tgt]) != len(want[tgt]) {
			t.Fatalf("shards=%d: target %d logged %d events, want %d", shards, tgt, len(logs[tgt]), len(want[tgt]))
		}
		for i := range want[tgt] {
			if logs[tgt][i] != want[tgt][i] {
				t.Fatalf("shards=%d: target %d event %d = %+v, want %+v", shards, tgt, i, logs[tgt][i], want[tgt][i])
			}
		}
	}
	return logs, sent
}

// TestDrainOrderMatchesSortedMerge pins the barrier's delivery order
// against the merge comparator. Every partition has ports of two
// latencies to two targets, so an outbox is not sorted by arrival, and
// all sources send same-instant bursts whose crossings tie at their
// targets, next to a local event due at each arrival instant.
func TestDrainOrderMatchesSortedMerge(t *testing.T) {
	const n = 5
	pl := plan{parts: n}
	for i := 0; i < n; i++ {
		pl.ports = append(pl.ports,
			planPort{src: i, tgt: (i + 1) % n, latency: 10 * sim.Millisecond},
			planPort{src: i, tgt: (i + 1) % n, latency: 14 * sim.Millisecond},
			planPort{src: i, tgt: (i + 2) % n, latency: 17 * sim.Millisecond})
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < n; i++ {
		for j := 0; j < 40; j++ {
			pl.emits = append(pl.emits, planEmit{
				port: 3*i + rng.Intn(3),
				at:   sim.Time(rng.Intn(200)) * sim.Millisecond,
				n:    1 + rng.Intn(3),
			})
		}
		// Bursts that all land at 50ms and 150ms: target i hears from
		// i-1 through both its latencies and from i-2, all emitted in
		// one window; the 14ms port fires first.
		for _, base := range []sim.Time{50 * sim.Millisecond, 150 * sim.Millisecond} {
			pl.emits = append(pl.emits,
				planEmit{port: 3*i + 1, at: base - 14*sim.Millisecond, n: 2},
				planEmit{port: 3 * i, at: base - 10*sim.Millisecond, n: 3},
				planEmit{port: 3*i + 2, at: base - 17*sim.Millisecond, n: 2})
		}
	}

	for _, shards := range []int{2, 3, 8} {
		checkPlan(t, pl, shards)
	}

	// The plan must exercise what it claims: a source whose outbox is
	// out of arrival order, and crossings from several sources tied at
	// one instant.
	logs, sent := checkPlan(t, pl, 1)
	unsorted := false
	for _, recs := range sent {
		for i := 1; i < len(recs); i++ {
			unsorted = unsorted || recs[i].arrive < recs[i-1].arrive
		}
	}
	if !unsorted {
		t.Fatal("no outbox is out of arrival order; the plan tests nothing")
	}
	multi := false
	for _, log := range logs {
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			multi = multi || a.at == b.at && a.src >= 0 && b.src >= 0 && a.src != b.src
		}
	}
	if !multi {
		t.Fatal("no two sources' crossings tie at a target; the plan tests nothing")
	}
}

// planReader hands out fuzz bytes, zeros once they run out.
type planReader []byte

func (r *planReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// planFromBytes decodes a fuzz input: the partition count (2–6), ports
// per partition (1–3) with their targets and latencies (1–8ms), then
// bursts of 1–3 packets at whole milliseconds, so ties are common.
func planFromBytes(data []byte) plan {
	r := planReader(data)
	pl := plan{parts: 2 + r.next()%5}
	perPart := 1 + r.next()%3
	for i := 0; i < pl.parts; i++ {
		for j := 0; j < perPart; j++ {
			tgt := (i + 1 + r.next()%(pl.parts-1)) % pl.parts
			pl.ports = append(pl.ports, planPort{src: i, tgt: tgt, latency: sim.Time(1+r.next()%8) * sim.Millisecond})
		}
	}
	for len(r) > 0 && len(pl.emits) < 64 {
		pl.emits = append(pl.emits, planEmit{
			port: r.next() % len(pl.ports),
			at:   sim.Time(r.next()) * sim.Millisecond,
			n:    1 + r.next()%3,
		})
	}
	return pl
}

// FuzzBarrierOrder checks arbitrary worlds against the merge comparator
// and requires the same logs at shards 1 and 3.
func FuzzBarrierOrder(f *testing.F) {
	f.Add([]byte{3, 2, 0, 2, 1, 5, 0, 1, 2, 0, 4, 1, 9, 7, 3, 10, 1, 2, 6, 10, 0, 8, 12, 2, 3, 11, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 0, 2})
	f.Add([]byte{4, 1, 1, 3, 2, 7, 3, 1, 0, 0, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		pl := planFromBytes(data)
		one, _ := checkPlan(t, pl, 1)
		three, _ := checkPlan(t, pl, 3)
		for tgt := range one {
			if !slices.Equal(one[tgt], three[tgt]) {
				t.Fatalf("target %d: shards=1 logged %+v, shards=3 %+v", tgt, one[tgt], three[tgt])
			}
		}
	})
}

// TestBarrierAllocFree drives a warmed 3-partition ring through its
// ports with tickers and pooled packets: another 100 windows of Run
// must allocate no more than one window does, so outboxes are reused
// and lane events come from the engines' free lists.
func TestBarrierAllocFree(t *testing.T) {
	const n, latency = 3, 10 * sim.Millisecond
	w := NewWorld()
	parts := make([]*Part, n)
	for i := range parts {
		parts[i] = w.AddPart(MixSeed(3, i))
	}
	for i, pa := range parts {
		port := w.NewPort(pa, parts[(i+1)%n], netem.ReceiverFunc(pkt.Put), latency)
		pool := pa.Pool
		pa.Eng.Tick(sim.Millisecond, func() { port.Receive(pool.Get()) })
	}
	w.SetShards(1)
	w.Run(sim.Second, nil)

	windows := func(k int) func() {
		return func() { w.Run(parts[0].Eng.Now()+sim.Time(k)*latency, nil) }
	}
	one := testing.AllocsPerRun(1, windows(1))
	hundred := testing.AllocsPerRun(1, windows(100))
	if hundred > one {
		t.Fatalf("100 windows allocate %v, one window %v: the barrier allocates per window", hundred, one)
	}
	if got := w.Transferred(); got == 0 {
		t.Fatal("no crossings drained")
	}
}
