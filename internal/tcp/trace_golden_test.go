package tcp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

// traceCell is one run of the packet-trace matrix: every packet either
// endpoint emits, hashed in emission order, plus the senders' counters.
type traceCell struct {
	hash                          string // first 8 bytes of the SHA-256, hex
	packets, done, retx, timeouts int
}

// hashPacket folds the fields an endpoint sets on a packet into h.
func hashPacket(h hash.Hash, now sim.Time, p *pkt.Packet) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(now))
	put(p.FlowID)
	put(uint64(p.Seq))
	put(uint64(p.Ack))
	put(uint64(p.Size))
	put(uint64(p.IPID))
	if p.Retransmit {
		put(1)
	} else {
		put(0)
	}
	put(uint64(p.NSACK))
	for _, sb := range p.SACK[:p.NSACK] {
		put(uint64(sb.Start))
		put(uint64(sb.End))
	}
}

// runTraceCell sends eight flows of 1 B–3 MB through a 20 Mbit/s, 40 ms
// RTT link with a 30 kB buffer. The forward direction loses each packet
// with probability loss and delays it by up to jitter (reordering);
// the ACK direction loses with probability loss/2.
func runTraceCell(cc string, loss float64, jitter sim.Time) traceCell {
	eng := sim.NewEngine(7)
	mux := NewMux()
	h := sha256.New()
	packets := 0
	tap := func(next netem.Receiver) netem.Receiver {
		return netem.NewTap(func(p *pkt.Packet) {
			packets++
			hashPacket(h, eng.Now(), p)
		}, next)
	}
	fwd := tap(netem.NewLink(eng, "fwd", 20e6, 20*sim.Millisecond, qdisc.NewFIFO(30000),
		netem.NewLossy(eng, loss, netem.NewJitter(eng, jitter, mux))))
	rev := tap(netem.NewLink(eng, "rev", 20e6, 20*sim.Millisecond, qdisc.NewFIFO(30000),
		netem.NewLossy(eng, loss/2, mux)))

	var senders []*Sender
	for i, size := range []int64{1, 1448, 1449, 14480, 30000, 400000, 2_000_001, 3_000_000} {
		id := uint64(i + 1)
		sa := pkt.Addr{Host: uint32(1000 + id), Port: 5000}
		ra := pkt.Addr{Host: uint32(2000 + id), Port: 80}
		s := NewSender(eng, fwd, sa, ra, id, size, NewEndhostCC(cc), nil)
		r := NewReceiver(eng, rev, ra, sa, id, size, nil)
		mux.Register(sa, s)
		mux.Register(ra, r)
		senders = append(senders, s)
		s.Start()
	}
	eng.RunUntil(120 * sim.Second)

	c := traceCell{hash: fmt.Sprintf("%x", h.Sum(nil)[:8]), packets: packets}
	for _, s := range senders {
		if s.Done() {
			c.done++
		}
		c.retx += s.Retransmits
		c.timeouts += s.Timeouts
	}
	return c
}

// TestSenderPacketTraceGolden pins the endhost model's exact packet
// stream — every data packet and ACK, retransmission choices, SACK
// blocks and timer-driven sends — across congestion controllers, loss
// rates and reordering. The constants were produced by the pointer-slice
// scoreboard this package had before scoreboard.go; a change to the
// sender's bookkeeping that alters any send decision moves a hash.
// Two cells, reno/loss=0.2/jitter=0ms and cubic/loss=0.05/jitter=0ms,
// were regenerated when a delayed link stopped scheduling an event at
// the end of each packet's serialization: a burst that reaches the link
// in the nanosecond its wire frees now starts its first packet at once
// instead of queueing it behind that event, so the 30 kB FIFO takes one
// more packet of the burst before it overflows.
func TestSenderPacketTraceGolden(t *testing.T) {
	want := map[string]traceCell{
		"reno/loss=0/jitter=0ms":     {"8eee2226af608e63", 7500, 8, 34, 3},
		"reno/loss=0/jitter=3ms":     {"40c76884f807baa6", 7506, 8, 36, 3},
		"reno/loss=0.01/jitter=0ms":  {"f2d7688815eb4717", 7539, 8, 72, 4},
		"reno/loss=0.01/jitter=3ms":  {"145ec250d8a65b63", 7559, 8, 86, 4},
		"reno/loss=0.05/jitter=0ms":  {"aefd615cc51250d0", 8308, 8, 820, 17},
		"reno/loss=0.05/jitter=3ms":  {"49e1773895a6e103", 8887, 8, 1364, 32},
		"reno/loss=0.2/jitter=0ms":   {"86d56711f763eb13", 2114, 5, 514, 26},
		"reno/loss=0.2/jitter=3ms":   {"94d6f5fcd6633620", 1232, 5, 210, 19},
		"cubic/loss=0/jitter=0ms":    {"26f4b60948bf0374", 7498, 8, 32, 3},
		"cubic/loss=0/jitter=3ms":    {"2e1f0c524eb2bb35", 7502, 8, 34, 3},
		"cubic/loss=0.01/jitter=0ms": {"7f18bcbd1f0c992f", 7534, 8, 67, 5},
		"cubic/loss=0.01/jitter=3ms": {"7c78217679714dcf", 7525, 8, 56, 3},
		"cubic/loss=0.05/jitter=0ms": {"03ae45fa3dd1ea87", 8534, 8, 1032, 20},
		"cubic/loss=0.05/jitter=3ms": {"4f7083b9d53e77d5", 7719, 8, 243, 20},
		"cubic/loss=0.2/jitter=0ms":  {"f03d462cd1645820", 1584, 5, 298, 23},
		"cubic/loss=0.2/jitter=3ms":  {"1ea4047d5c73faa4", 2005, 5, 314, 19},
		"bbr/loss=0/jitter=0ms":      {"bb3c065ff5f43aa7", 21323, 6, 14334, 21},
		"bbr/loss=0/jitter=3ms":      {"a7ce49d312da7a3a", 29701, 6, 22491, 27},
		"bbr/loss=0.01/jitter=0ms":   {"ab3cb9c0fb840d9d", 21660, 6, 14829, 20},
		"bbr/loss=0.01/jitter=3ms":   {"e2bce1abd466b472", 24382, 6, 17495, 22},
		"bbr/loss=0.05/jitter=0ms":   {"f5e3776db0f50b9a", 18392, 6, 11747, 21},
		"bbr/loss=0.05/jitter=3ms":   {"39ea61ac3d5c9239", 22652, 5, 15639, 28},
		"bbr/loss=0.2/jitter=0ms":    {"c59fabd449e45ce6", 18716, 5, 12354, 25},
		"bbr/loss=0.2/jitter=3ms":    {"4e296a7554076ca3", 12880, 6, 6638, 28},
	}
	for _, cc := range []string{"reno", "cubic", "bbr"} {
		for _, loss := range []float64{0, 0.01, 0.05, 0.20} {
			for _, jitterMs := range []int{0, 3} {
				name := fmt.Sprintf("%s/loss=%g/jitter=%dms", cc, loss, jitterMs)
				got := runTraceCell(cc, loss, sim.Time(jitterMs)*sim.Millisecond)
				if got != want[name] {
					t.Errorf("%s: got %+v, want %+v", name, got, want[name])
				}
			}
		}
	}
}
