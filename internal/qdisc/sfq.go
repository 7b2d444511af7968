package qdisc

import (
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// SFQ implements Stochastic Fairness Queueing (McKenney, INFOCOM 1990),
// the sendbox's default scheduling policy in the paper's evaluation. Flows
// are hashed into a fixed number of buckets; active buckets are served
// round-robin, one quantum of bytes per turn (deficit round robin, as the
// Linux implementation effectively provides with its allotments).
type SFQ struct {
	tally
	// groups is the hash-indexed slot table, two-level so an SFQ's
	// footprint is proportional to the flows it has actually seen, not
	// to the table size: bucket index bi lives at
	// groups[bi>>sfqGroupShift][bi&sfqGroupMask], and both the 32-slot
	// group and the bucket are made on first use. Scenarios with
	// thousands of mostly-narrow SFQs (the N-site mesh: one per ordered
	// site pair) would otherwise pay the full table in zeroed,
	// GC-scanned memory each — quadratic in site count.
	groups []*sfqGroup
	// buckets carves a slot's bucket on its first push, in chunks that
	// double up to 16: a narrow SFQ pays for the buckets it uses, and a
	// wide one allocates once per 16.
	buckets  sim.Slab[sfqBucket]
	nbuckets int
	active   []int // round-robin list of non-empty bucket indices
	cursor   int
	quantum  int
	perturb  uint64
	limit    int // total packet cap

	// The storage of the table up to the default 1024 buckets, and of
	// the first group, bucket and active list a flow needs. A narrow
	// SFQ (the mesh's, one per ordered site pair, carrying a flow or
	// two) allocates nothing past the SFQ itself; larger tables and
	// later flows fall back to the heap and the bucket slab.
	table   [1024 >> sfqGroupShift]*sfqGroup
	group0  sfqGroup
	bucket0 sfqBucket
	active0 [2]int
	used0   bool // group0 and bucket0 are taken
}

const (
	sfqGroupShift = 5
	sfqGroupMask  = 1<<sfqGroupShift - 1
)

type sfqGroup [1 << sfqGroupShift]*sfqBucket

type sfqBucket struct {
	pktQueue
	deficit int
	active  bool
}

// NewSFQ returns an SFQ with the given bucket count (power of two
// recommended), total packet limit, and per-turn quantum of one MTU.
func NewSFQ(nbuckets, limitPackets int) *SFQ {
	s := new(SFQ)
	s.Init(nbuckets, limitPackets)
	return s
}

// Init builds NewSFQ's SFQ in place, in a zero SFQ that its owner
// carves from a slab. The SFQ points into itself, so it must not be
// copied afterwards.
func (s *SFQ) Init(nbuckets, limitPackets int) {
	if nbuckets <= 0 || limitPackets <= 0 {
		panic("qdisc: SFQ sizes must be positive")
	}
	s.nbuckets, s.quantum, s.limit = nbuckets, pkt.MTU, limitPackets
	if n := (nbuckets + sfqGroupMask) >> sfqGroupShift; n <= len(s.table) {
		s.groups = s.table[:n]
	} else {
		s.groups = make([]*sfqGroup, n)
	}
	s.active = s.active0[:0]
}

// bucketAt returns the bucket at slot bi. It must exist: only push
// creates buckets, so every one on the active list does.
func (s *SFQ) bucketAt(bi int) *sfqBucket {
	return s.groups[bi>>sfqGroupShift][bi&sfqGroupMask]
}

// SetPerturbation re-keys the flow hash, as Linux SFQ does periodically to
// break unlucky collisions. Packets already queued are rehashed into the
// buckets the new key selects: left under the old key, a flow caught
// mid-queue would occupy two round-robin buckets at once and dequeue
// interleaved — in-bundle reordering, which Bundler must never introduce
// (its own §5.2 heuristic reads reordering as a multipath signal).
// Re-keying resets the round-robin cursor and per-bucket deficits; byte
// and packet counts are preserved exactly.
func (s *SFQ) SetPerturbation(p uint64) {
	if p == s.perturb {
		return
	}
	s.perturb = p
	if s.count == 0 {
		return
	}
	// Drain every bucket in slot order into one queue, then re-admit
	// that sequence under the new key: the order a rehash into a fresh
	// table would give, with no second table.
	var all pkt.Queue
	for _, g := range s.groups {
		if g == nil {
			continue
		}
		for _, b := range g {
			if b == nil {
				continue
			}
			for p := b.pop(); p != nil; p = b.pop() {
				all.Push(p)
			}
			b.deficit, b.active = 0, false
		}
	}
	s.active = s.active[:0]
	s.cursor = 0
	s.count, s.bytes = 0, 0
	for p := all.Pop(); p != nil; p = all.Pop() {
		s.push(s.bucketOf(p), p)
	}
}

func (s *SFQ) bucketOf(p *pkt.Packet) int {
	return int(pkt.FlowHash(p, s.perturb) % uint64(s.nbuckets))
}

// Enqueue implements Qdisc. When the total limit is exceeded it drops a
// packet from the longest bucket (SFQ's drop-from-fattest policy); the
// arriving packet is only rejected if it belongs to that same bucket.
func (s *SFQ) Enqueue(p *pkt.Packet) bool {
	bi := s.bucketOf(p)
	if s.count >= s.limit {
		fattest := s.fattestBucket()
		s.drops++
		if fattest == bi || fattest < 0 {
			return false
		}
		// The bucket stays in the active list; Dequeue removes it when
		// empty.
		s.discard(s.bucketAt(fattest).pop())
	}
	s.push(bi, p)
	return true
}

// push appends p to bucket bi (the one the current key selects),
// maintaining byte, packet, and active-list accounting. It is the common
// tail of Enqueue and of the SetPerturbation rehash (whose packets were
// already admitted, so no limit check belongs here).
func (s *SFQ) push(bi int, p *pkt.Packet) {
	g := s.groups[bi>>sfqGroupShift]
	b := (*sfqBucket)(nil)
	if g != nil {
		b = g[bi&sfqGroupMask]
	}
	if b == nil {
		switch {
		case !s.used0:
			g, b, s.used0 = &s.group0, &s.bucket0, true
		case g == nil:
			g, b = &sfqGroup{}, s.buckets.New()
		default:
			b = s.buckets.New()
		}
		s.groups[bi>>sfqGroupShift] = g
		g[bi&sfqGroupMask] = b
	}
	b.push(p)
	s.in(p)
	if !b.active {
		b.active = true
		b.deficit = s.quantum
		s.active = append(s.active, bi)
	}
}

func (s *SFQ) fattestBucket() int {
	best, bestLen := -1, 0
	for _, bi := range s.active {
		if l := s.bucketAt(bi).Len(); l > bestLen {
			best, bestLen = bi, l
		}
	}
	return best
}

// Dequeue implements Qdisc using deficit round robin over active buckets.
func (s *SFQ) Dequeue() *pkt.Packet {
	for len(s.active) > 0 {
		if s.cursor >= len(s.active) {
			s.cursor = 0
		}
		bi := s.active[s.cursor]
		b := s.bucketAt(bi)
		if b.Len() == 0 {
			b.active = false
			s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
			continue
		}
		if b.peek().Size > b.deficit {
			b.deficit += s.quantum
			s.cursor++
			continue
		}
		p := b.pop()
		b.deficit -= p.Size
		s.out(p)
		if b.Len() == 0 {
			b.active = false
			s.active = append(s.active[:s.cursor], s.active[s.cursor+1:]...)
		}
		return p
	}
	return nil
}
