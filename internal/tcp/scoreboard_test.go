package tcp

import (
	"math/rand"
	"testing"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// refSeg and refBoard are the reference the ring is tested against: one
// record per segment with everything stored, and the whole-window linear
// scans the sender used before scoreboard.go. They are deliberately naive
// — do not optimise them.
type refSeg struct {
	seq                          int64
	length                       int64
	sentAt                       clock.Time
	retx, sacked, lost, inFlight bool
}

type refBoard struct {
	size, sndNxt int64
	segs         []refSeg
	pipe         int64
	lostCount    int
	highSack     int64
}

func (r *refBoard) sendNew(now clock.Time) {
	length := min(int64(pkt.MSS), r.size-r.sndNxt)
	r.segs = append(r.segs, refSeg{seq: r.sndNxt, length: length, sentAt: now, inFlight: true})
	r.sndNxt += length
	r.pipe += length
}

func (r *refBoard) nextLost() int {
	for i, sg := range r.segs {
		if sg.lost && !sg.inFlight && !sg.sacked {
			return i
		}
	}
	return -1
}

func (r *refBoard) retransmit(i int, now clock.Time) {
	sg := &r.segs[i]
	sg.lost = false
	r.lostCount--
	sg.retx = true
	sg.sentAt = now
	if !sg.inFlight && !sg.sacked {
		r.pipe += sg.length
	}
	sg.inFlight = true
}

func (r *refBoard) lose(sg *refSeg) {
	if sg.inFlight {
		r.pipe -= sg.length
	}
	if !sg.lost {
		r.lostCount++
	}
	sg.lost = true
	sg.inFlight = false
}

func (r *refBoard) loseAll() {
	for i := range r.segs {
		if !r.segs[i].sacked {
			r.lose(&r.segs[i])
		}
	}
}

func (r *refBoard) loseFirst() bool {
	if len(r.segs) == 0 || r.segs[0].sacked || r.segs[0].lost || !r.segs[0].inFlight {
		return false
	}
	r.lose(&r.segs[0])
	return true
}

func (r *refBoard) ackTo(ack int64) (sent clock.Time, ok bool) {
	i := 0
	for ; i < len(r.segs) && r.segs[i].seq+r.segs[i].length <= ack; i++ {
		sg := r.segs[i]
		if sg.inFlight && !sg.sacked {
			r.pipe -= sg.length
		}
		if sg.lost {
			r.lostCount--
		}
		if !sg.retx {
			sent, ok = sg.sentAt, true
		}
	}
	r.segs = r.segs[i:]
	return sent, ok
}

func (r *refBoard) sack(blocks []SACKBlock) {
	for i := range r.segs {
		sg := &r.segs[i]
		if sg.sacked {
			continue
		}
		end := sg.seq + sg.length
		for _, b := range blocks {
			if sg.seq >= b.Start && end <= b.End {
				if sg.inFlight {
					r.pipe -= sg.length
				}
				if sg.lost {
					r.lostCount--
				}
				sg.sacked, sg.lost = true, false
				r.highSack = max(r.highSack, end)
				break
			}
		}
	}
}

func (r *refBoard) markLost() bool {
	if r.highSack == 0 {
		return false
	}
	newLoss := false
	for i := range r.segs {
		sg := &r.segs[i]
		if sg.sacked || sg.lost || sg.retx {
			continue
		}
		if sg.seq+sg.length+sackDupThresh*pkt.MSS <= r.highSack {
			r.lose(sg)
			newLoss = true
		}
	}
	return newLoss
}

// runScoreboardOps drives a scoreboard and the reference in lock-step
// through the operations ops encodes, comparing all state after each,
// and returns how many operations ran. maxWin bounds the live window in
// segments. An opcode byte (mod 16) picks the operation; arguments are
// the bytes that follow (zero once ops runs out):
//
//	0–4   send 1–8 new segments
//	5–7   cumulative ACK: stale, mid-segment, on a boundary, beyond sndNxt
//	8–10  SACK with 0–4 blocks: fresh (unaligned, reversed, overlapping,
//	      beyond sndNxt), replayed from an older ACK, or the last set with
//	      one block extended
//	11–12 markLost
//	13    retransmit the next 1–4 lost segments
//	14    SACK-less dupack fallback
//	15    RTO (one time in four), else retransmit
func runScoreboardOps(t *testing.T, size int64, maxWin int, ops []byte) int {
	const half = pkt.MSS / 2
	sb := newScoreboard(size, nil)
	ref := &refBoard{size: size}
	var sndUna int64
	var history [8][]SACKBlock
	nhist := 0
	pos := 0
	next := func() int64 {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int64(ops[pos-1])
	}
	// base sits two segments below sndUna (possibly negative) so offsets
	// in half-segments reach stale, unaligned and boundary values alike.
	base := func() int64 { return (sndUna/pkt.MSS - 2) * pkt.MSS }
	offset := func() int64 {
		v := next()
		if v < 0xE0 {
			return v % 12 * half
		}
		return v * half // a long jump, usually past sndNxt
	}
	retransmit := func(now clock.Time, n int64) {
		for ; n > 0; n-- {
			k, i := sb.nextLost(), ref.nextLost()
			if (k < 0) != (i < 0) || (i >= 0 && k*pkt.MSS != ref.segs[i].seq) {
				t.Fatalf("nextLost: segment %d, reference index %d", k, i)
			}
			if k < 0 {
				return
			}
			sb.retransmit(k, now)
			ref.retransmit(i, now)
		}
	}

	nops := 0
	for pos < len(ops) {
		nops++
		now := clock.Time(nops)
		op := next() % 16
		switch {
		case op <= 4:
			for n := 1 + next()%8; n > 0 && sb.sndNxt() < size && int(sb.segNxt-sb.segUna) < maxWin; n-- {
				k := sb.sendNew(now)
				if k*pkt.MSS != ref.sndNxt {
					t.Fatalf("op %d: sendNew returned segment %d at sndNxt %d", nops, k, ref.sndNxt)
				}
				ref.sendNew(now)
			}
		case op <= 7:
			ack := base() + offset()
			if next()%8 == 0 {
				ack = sb.sndNxt() // everything outstanding, exactly
			}
			gs, gok := sb.ackTo(ack)
			ws, wok := ref.ackTo(ack)
			if gs != ws || gok != wok {
				t.Fatalf("op %d: ackTo(%d) RTT sample (%v, %v), reference (%v, %v)", nops, ack, gs, gok, ws, wok)
			}
			sndUna = max(sndUna, ack)
		case op <= 10:
			var blocks []SACKBlock
			switch mode := next() % 4; {
			case mode == 0 && nhist > 0:
				blocks = history[next()%int64(min(nhist, len(history)))]
			case mode == 1 && nhist > 0:
				blocks = append(blocks, history[(nhist-1)%len(history)]...)
				if len(blocks) > 0 {
					blocks[next()%int64(len(blocks))].End += (1 + next()%4) * half
				}
			default:
				for n := next() % 5; n > 0; n-- {
					start := base() + offset()
					end := start + offset()
					switch next() % 8 {
					case 0:
						start, end = end, start
					case 1:
						end = size // reaches a final short segment's end
					}
					blocks = append(blocks, SACKBlock{Start: start, End: end})
				}
			}
			history[nhist%len(history)] = blocks
			nhist++
			sb.sack(blocks)
			ref.sack(blocks)
		case op <= 12:
			if got, want := sb.markLost(), ref.markLost(); got != want {
				t.Fatalf("op %d: markLost = %v, reference %v", nops, got, want)
			}
		case op == 14:
			if got, want := sb.loseFirst(), ref.loseFirst(); got != want {
				t.Fatalf("op %d: loseFirst = %v, reference %v", nops, got, want)
			}
		case op == 15 && next()%4 == 0:
			sb.loseAll()
			ref.loseAll()
		default:
			retransmit(now, 1+next()%4)
		}

		if sb.pipe != ref.pipe || sb.lostCount != ref.lostCount || sb.highSack != ref.highSack || sb.sndNxt() != ref.sndNxt {
			t.Fatalf("op %d (code %d): pipe/lostCount/highSack/sndNxt = %d/%d/%d/%d, reference %d/%d/%d/%d", nops, op,
				sb.pipe, sb.lostCount, sb.highSack, sb.sndNxt(), ref.pipe, ref.lostCount, ref.highSack, ref.sndNxt)
		}
		if int(sb.segNxt-sb.segUna) != len(ref.segs) {
			t.Fatalf("op %d (code %d): %d live segments, reference %d", nops, op, sb.segNxt-sb.segUna, len(ref.segs))
		}
		for i, want := range ref.segs {
			k := sb.segUna + int64(i)
			e := *sb.at(k)
			got := refSeg{k * pkt.MSS, sb.length(k), clock.Time(e >> segFlagBits),
				e&segRetx != 0, e&segSacked != 0, e&segLost != 0, e&segInFlight != 0}
			if got != want {
				t.Fatalf("op %d (code %d): segment %d = %+v, reference %+v", nops, op, k, got, want)
			}
		}
		// nextLost's answer without its side effect, so that a stale
		// lostHint survives from one operation to the next.
		hint := sb.lostHint
		k, i := sb.nextLost(), ref.nextLost()
		sb.lostHint = hint
		if (k < 0) != (i < 0) || (i >= 0 && k != sb.segUna+int64(i)) {
			t.Fatalf("op %d (code %d): nextLost = segment %d, reference index %d above segUna %d", nops, op, k, i, sb.segUna)
		}
	}
	return nops
}

// TestScoreboardMatchesReference is the differential test: generated
// operation streams over transfers from one byte to thousands of
// segments, windows from 1 to 512.
func TestScoreboardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	total := 0
	for run := 0; run < 60; run++ {
		size := int64(1)
		if run > 0 {
			size = 1 + rng.Int63n(int64(1)<<uint(4+run%20))
		}
		ops := make([]byte, 10000)
		rng.Read(ops)
		total += runScoreboardOps(t, size, 1+rng.Intn(512), ops)
	}
	if total < 100_000 {
		t.Fatalf("only %d operations generated, want ≥ 100000", total)
	}
}

func FuzzScoreboard(f *testing.F) {
	f.Add(uint32(0), uint16(8), []byte{0, 0, 5, 4, 0, 5, 4, 1})                                       // a one-byte transfer
	f.Add(uint32(10*pkt.MSS+6), uint16(64), []byte{0, 7, 0, 7, 8, 2, 1, 6, 9, 1, 11, 13, 3, 5, 0, 0}) // a final short segment
	f.Add(uint32(300*pkt.MSS-1), uint16(300), []byte{0, 7, 0, 7, 0, 7, 8, 2, 2, 8, 4, 0, 9, 1, 0, 3, 11, 13, 0, 15, 0, 13, 3, 14, 5, 6, 1})
	f.Fuzz(func(t *testing.T, size uint32, maxWin uint16, ops []byte) {
		runScoreboardOps(t, 1+int64(size)%(1<<24), 1+int(maxWin)%1024, ops)
	})
}

// TestScoreboardMemoryFollowsWindow: the ring is sized by the window, not
// by the transfer.
func TestScoreboardMemoryFollowsWindow(t *testing.T) {
	const n = 200_000
	sb := newScoreboard(n*pkt.MSS, nil)
	for k := int64(0); k < n; k++ {
		if k >= 10 {
			sb.ackTo((k - 9) * pkt.MSS)
		}
		sb.sendNew(clock.Time(k))
	}
	if len(sb.ring) > 16 {
		t.Fatalf("ring grew to %d entries for a 10-segment window", len(sb.ring))
	}
	if sb := newScoreboard(1<<40, nil); len(sb.ring) > 16 { // TestAbortStopsTransmission's size
		t.Fatalf("a 2^40-byte transfer starts with a %d-entry ring", len(sb.ring))
	}
	if sb := newScoreboard(1, nil); len(sb.ring) != 1 {
		t.Fatalf("a one-segment transfer starts with a %d-entry ring", len(sb.ring))
	}
}

// TestAckPathAllocFree: a sender holding a 1 000-segment window with one
// hole, each ACK extending the one SACK block by a segment (and every
// 500th filling the hole and opening the next), allocates nothing per
// ACK once the ring has reached its size.
func TestAckPathAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	out := netem.ReceiverFunc(func(p *pkt.Packet) { pkt.Put(p) })
	s := NewSender(eng, out, pkt.Addr{Host: 1}, pkt.Addr{Host: 2}, 1, 1<<40, NewFixedCwnd(1000), nil)
	s.Start()
	hole, top := int64(0), int64(1) // the receiver holds segments [hole+1, top)
	step := func() {
		a := pkt.Get()
		a.Proto, a.Flags = pkt.ProtoTCP, pkt.FlagACK
		if top-hole > 500 {
			hole, top = top, top+1 // the retransmission arrived; the next segment is lost
		} else {
			top++
			a.NSACK = 1
			a.SACK[0] = SACKBlock{Start: (hole + 1) * pkt.MSS, End: top * pkt.MSS}
		}
		a.Ack = hole * pkt.MSS
		s.Receive(a)
	}
	for i := 0; i < 5000; i++ {
		step() // warm up: the ring and the packet pool reach their sizes
	}
	ring := len(s.sb.ring)
	if allocs := testing.AllocsPerRun(5000, step); allocs != 0 {
		t.Fatalf("%.2f allocs per ACK, want 0", allocs)
	}
	if len(s.sb.ring) != ring || s.Retransmits == 0 {
		t.Fatalf("ring went from %d to %d entries at a steady window (%d retransmits)", ring, len(s.sb.ring), s.Retransmits)
	}
}
