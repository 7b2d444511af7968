package tcp

import (
	"bundler/internal/clock"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// Per-segment state, packed below the segment's last send time in one
// ring word (see scoreboard).
const (
	segRetx     = 1 << iota // ever retransmitted (Karn: no RTT samples)
	segSacked               // never cleared once set
	segLost                 // awaiting retransmission; implies !inFlight and !sacked
	segInFlight             // counted in pipe unless sacked
	segFlagBits = iota      // the number of flags above
)

// scoreboard is the sender's record of the segments in [sndUna, sndNxt),
// built so that an ACK costs work proportional to what it changed rather
// than to the window.
//
// A transfer starts at sequence 0 and sendNew is the only creator of
// segments, each a full MSS except the last, so segment k always covers
// [k·MSS, min((k+1)·MSS, size)): position is identity, and neither the
// sequence number nor the length is stored. An entry is one word — last
// send time << segFlagBits | flags — at ring[k & (len−1)] for k in
// [segUna, segNxt). The ring starts just large enough for the initial
// window and doubles when the window outgrows it.
//
// Four facts keep the per-ACK walks short (docs/ARCHITECTURE.md, "Endhost
// TCP model", gives the argument for each):
//
//  1. a cumulative ACK only advances segUna;
//  2. sacked is never cleared and no segment is created below sndNxt, so
//     a SACK block that extends one already applied (prev) is walked
//     from where that one ended;
//  3. end + 3·MSS ≤ highSack holds for a prefix of the window that only
//     grows, and a segment examined under it is sacked, lost or retx ever
//     after, so markLost resumes at lossMark;
//  4. a segment becomes lost at exactly three places (markLost, loseFirst,
//     loseAll), each of which lowers lostHint, where nextLost starts.
type scoreboard struct {
	size int64 // transfer size in bytes

	ring           []uint64 // len is a power of two
	segUna, segNxt int64    // live segments are [segUna, segNxt)

	pipe      int64 // Σ length over inFlight && !sacked segments (RFC 6675 pipe)
	lostCount int   // segments currently marked lost
	highSack  int64 // highest SACKed extent ever seen (0 = none yet)

	lossMark int64 // every live segment below it is sacked, lost or retx
	lostHint int64 // no live segment below it is lost

	// prev holds the blocks the last SACK-bearing ACK applied, clamped to
	// [0, sndNxt) as it was then: every segment wholly inside one of them
	// is sacked (or already popped). Four is what a packet carries.
	prev  [4]SACKBlock
	nprev int
}

// newScoreboard starts the record of a size-byte transfer in ring, the
// one a finished transfer left, when that is large enough. A longer ring
// than a fresh one behaves identically: positions are taken mod its
// length, only live entries are read, and it grows only when full.
func newScoreboard(size int64, ring []uint64) scoreboard {
	if n := ringSize(size); len(ring) < n {
		ring = make([]uint64, n)
	}
	return scoreboard{size: size, ring: ring}
}

// ringSize is a fresh ring's length: the initial window, rounded up to a power of two.
func ringSize(size int64) int {
	n := 1
	for int64(n) < min((size+pkt.MSS-1)/pkt.MSS, InitialCwnd) {
		n *= 2
	}
	return n
}

// ReserveRing carves from a the ring s's next Init, for a size-byte
// transfer, would allocate; a large enough ring is kept. Call it first.
func (s *Sender) ReserveRing(a *sim.Arena[uint64], size int64) {
	if n := ringSize(size); len(s.sb.ring) < n {
		s.sb.ring = a.Take(n)[:n]
	}
}

func (b *scoreboard) at(k int64) *uint64 { return &b.ring[k&int64(len(b.ring)-1)] }

// The transfer is segs() segments; segment k covers [k·MSS, end(k)), and
// sndNxt is where the next one to be sent starts.
func (b *scoreboard) segs() int64          { return (b.size + pkt.MSS - 1) / pkt.MSS }
func (b *scoreboard) end(k int64) int64    { return min((k+1)*pkt.MSS, b.size) }
func (b *scoreboard) length(k int64) int64 { return b.end(k) - k*pkt.MSS }
func (b *scoreboard) sndNxt() int64        { return min(b.segNxt*pkt.MSS, b.size) }

// firstEndingAfter returns the lowest segment index whose end exceeds
// seq ≥ 0: one past the last segment when seq reaches the transfer's end.
func (b *scoreboard) firstEndingAfter(seq int64) int64 {
	if seq >= b.size {
		return b.segs()
	}
	return seq / pkt.MSS
}

// sendNew appends the next segment, transmitted at now, and returns its
// index.
func (b *scoreboard) sendNew(now clock.Time) int64 {
	if b.segNxt-b.segUna == int64(len(b.ring)) {
		b.grow()
	}
	k := b.segNxt
	b.segNxt++
	*b.at(k) = uint64(now)<<segFlagBits | segInFlight
	b.pipe += b.length(k)
	return k
}

func (b *scoreboard) grow() {
	old := b.ring
	b.ring = make([]uint64, 2*len(old))
	for k := b.segUna; k < b.segNxt; k++ {
		*b.at(k) = old[k&int64(len(old)-1)]
	}
}

// nextLost returns the lowest segment awaiting retransmission, or -1.
func (b *scoreboard) nextLost() int64 {
	if b.lostCount == 0 {
		return -1 // loss-free fast path: trySend polls this per send
	}
	for k := max(b.lostHint, b.segUna); k < b.segNxt; k++ {
		if *b.at(k)&segLost != 0 {
			b.lostHint = k
			return k
		}
	}
	return -1
}

// retransmit records that lost segment k was sent again at now.
func (b *scoreboard) retransmit(k int64, now clock.Time) {
	b.lostCount--
	b.pipe += b.length(k)
	*b.at(k) = uint64(now)<<segFlagBits | segRetx | segInFlight
}

// lose marks segment k (not sacked, not already lost) lost.
func (b *scoreboard) lose(k int64) {
	e := b.at(k)
	if *e&segInFlight != 0 {
		b.pipe -= b.length(k)
	}
	*e = *e&^segInFlight | segLost
	b.lostCount++
	b.lostHint = min(b.lostHint, k)
}

// loseAll is the RTO's verdict: everything not SACKed is presumed lost
// and eligible for retransmission.
func (b *scoreboard) loseAll() {
	for k := b.segUna; k < b.segNxt; k++ {
		if *b.at(k)&(segSacked|segLost) == 0 {
			b.lose(k)
		}
	}
}

// loseFirst is the third-dupack fallback for SACK-less peers: the first
// outstanding segment, if still in flight, is declared lost. It reports
// whether it marked it.
func (b *scoreboard) loseFirst() bool {
	if b.segUna == b.segNxt || *b.at(b.segUna)&(segSacked|segLost|segInFlight) != segInFlight {
		return false
	}
	b.lose(b.segUna)
	return true
}

// ackTo pops the segments a cumulative ACK covers whole and returns the
// send time of the newest popped one that was never retransmitted
// (Karn's algorithm), if any. O(newly acked): nothing moves.
func (b *scoreboard) ackTo(ack int64) (sent clock.Time, ok bool) {
	k := b.segUna
	for ; k < b.segNxt && b.end(k) <= ack; k++ {
		e := *b.at(k)
		if e&(segInFlight|segSacked) == segInFlight {
			b.pipe -= b.length(k)
		}
		if e&segLost != 0 {
			b.lostCount--
		}
		if e&segRetx == 0 {
			sent, ok = clock.Time(e>>segFlagBits), true
		}
	}
	b.segUna = k
	return sent, ok
}

// sack marks every live segment that one of blocks covers whole. There
// are at most len(prev) blocks, a packet's capacity.
func (b *scoreboard) sack(blocks []SACKBlock) {
	var cur [len(b.prev)]SACKBlock
	n := 0
	nxt := b.sndNxt()
	for _, blk := range blocks {
		start, end := max(blk.Start, 0), min(blk.End, nxt)
		if end <= start {
			continue
		}
		// The covered segments are one contiguous run [lo, hi).
		lo := max((start+pkt.MSS-1)/pkt.MSS, b.segUna)
		hi := b.firstEndingAfter(end)
		for _, pb := range b.prev[:b.nprev] {
			if pb.Start <= start && start < pb.End && pb.End <= end {
				lo = max(lo, b.firstEndingAfter(pb.End))
			}
		}
		for k := lo; k < hi; k++ {
			e := b.at(k)
			if *e&segSacked != 0 {
				continue
			}
			if *e&segInFlight != 0 {
				b.pipe -= b.length(k)
			}
			if *e&segLost != 0 {
				b.lostCount--
			}
			*e = *e&^segLost | segSacked
			b.highSack = max(b.highSack, b.end(k))
		}
		cur[n] = SACKBlock{Start: start, End: end}
		n++
	}
	b.prev, b.nprev = cur, n
}

// markLost applies the RFC 6675 rule: a segment is lost once SACKed data
// extends sackDupThresh segments beyond it. Retransmitted segments are
// exempt (the RTO catches re-lost retransmissions). It reports whether any
// segment was newly marked.
func (b *scoreboard) markLost() bool {
	newLoss := false
	k := max(b.lossMark, b.segUna)
	for ; k < b.segNxt && b.end(k)+sackDupThresh*pkt.MSS <= b.highSack; k++ {
		if *b.at(k)&(segSacked|segLost|segRetx) == 0 {
			b.lose(k)
			newLoss = true
		}
	}
	b.lossMark = k
	return newLoss
}

// release empties the record once the transfer is over. The ring stays,
// for the next transfer Sender.Init starts on it.
func (b *scoreboard) release() {
	b.segUna = b.segNxt
	b.pipe = 0
	b.lostCount = 0
}
