// Package pkt defines the packet model shared by the emulated network,
// the endhost transports, and the Bundler middleboxes.
//
// A Packet carries just enough header state to reproduce the paper's
// mechanisms: the IPv4-style identification field plus destination
// address/port feed the FNV-1a epoch-boundary hash (§4.5 of the paper),
// and the TCP-ish sequence/ack fields drive the endhost transports.
package pkt

import (
	"sync"
	"sync/atomic"

	"bundler/internal/clock"
)

// Proto distinguishes transport protocols. Bundler itself is
// protocol-agnostic; the emulator uses the protocol only to route packets
// to the right endpoint logic. Size is the on-wire packet size in bytes,
// headers included (MTU 1500, 40-byte TCP/IPv4-style header).
type Proto uint8

// Supported protocols.
const (
	ProtoTCP Proto = iota
	ProtoUDP
	// ProtoCtl marks Bundler's out-of-band control messages (congestion
	// ACKs and epoch-size updates). On a real deployment these are plain
	// UDP datagrams between the boxes; a distinct value keeps the
	// emulator's demultiplexing honest.
	ProtoCtl
)

// Flags holds TCP-style control bits.
type Flags uint8

// Flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
)

// Addr identifies an endpoint in the emulated network.
//
// Site names the destination site an address belongs to: the fabric
// that allocates an address stamps its site's id there, and
// netem.Demux routes a stamped packet by it alone, so a site needs one
// route however many flows it carries. Zero means "no site" (control
// addresses, hand-wired topologies, the pilot); such a packet is routed
// by Host. Site is local routing metadata: EpochHash and FlowHash never
// read it, and the pilot's codec never puts it on the wire.
//
// The three fields fill eight bytes with no padding, which makes Addr
// a plain 64-bit map key (tcp.Mux's map then takes Go's 64-bit fast
// path). A field added here must keep it so; pkt's layout test pins it.
// Write Addr literals with field keys.
type Addr struct {
	Host uint32
	Port uint16
	Site uint16
}

// SACKBlock reports one contiguous received byte range [Start, End) in
// an ACK. Up to four blocks travel inline in the packet (RFC 2018's
// practical limit) so ACK emission needs no per-packet allocation.
type SACKBlock struct{ Start, End int64 }

// CtlKind names the Bundler control message a ProtoCtl packet carries
// inline in CtlArg. The message is plain packet data, not a pointer, so
// minting and consuming one allocates nothing.
type CtlKind uint8

// Control message kinds.
const (
	CtlNone CtlKind = iota
	// CtlAck is a congestion ACK (§4.5): CtlArg[0] is the epoch
	// boundary's hash (a tunnel marker in tunnel mode), CtlArg[1] the
	// bundle bytes the receivebox has received so far.
	CtlAck
	// CtlEpochUpdate tells the receivebox its new epoch size: CtlArg[0]
	// is N.
	CtlEpochUpdate
)

// Packet is a single datagram in flight. Packets are passed by pointer and
// owned by whichever component currently holds them; they are never shared
// after being forwarded.
//
// The one- and two-byte fields share one block, so the struct carries
// a single run of padding; pkt's layout test pins its size.
//
// # Ownership and pooling
//
// Packets are pooled (Get/Put). Ownership transfers on every hand-off:
// calling Receive(p) gives p away, and the caller must not touch it
// again — the new owner may release it, and the pool may already have
// handed the same object to an unrelated flow. Exactly one component
// releases each packet, exactly once, at the end of its life:
//
//   - the endpoint that consumes it (TCP sender/receiver, ping
//     client/server, Bundler box eating a control message), or
//   - the dropper (a qdisc discarding an already-accepted packet, a
//     demux/mux with no route, a Lossy element, a Sink).
//
// Enqueue returning false does NOT drop: the packet was never accepted,
// so it still belongs to the caller. Taps and hooks (netem.Tap,
// OnDequeue/OnTransmitted, Receivebox.Observe) borrow the packet for the
// duration of the call and must not retain or release it. Double release
// panics.
//
// A queued packet is linked into its Queue through an unexported next
// pointer: only Queue reads or writes it, Pop clears it, and so does
// Put, so a released packet never drags a stale link into its next life.
type Packet struct {
	Src Addr
	Dst Addr

	// Header subset used by Bundler's epoch hash (with Dst).
	IPID uint16

	Proto Proto
	Flags Flags // TCP control bits

	// NSACK is the length of SACK's valid prefix; zero means no SACK
	// information.
	NSACK uint8

	// Retransmit marks a retransmitted segment. Real Bundler relies on the
	// IP ID changing on retransmission to avoid spurious epoch samples;
	// the emulator's TCP assigns a fresh IPID on every transmission, and
	// this bit exists for tests to assert that property.
	Retransmit bool

	// Tunneled marks a packet carrying Bundler's encapsulation header
	// (§4.5's alternative to hash-based epoch identification: explicit
	// marker fields in an outer header, required where the IPv4 ID field
	// is unavailable, e.g. IPv6). TunnelSeq is the epoch marker; zero
	// means "not an epoch boundary".
	Tunneled bool

	// Ctl is the control message a ProtoCtl packet carries, CtlNone on
	// every other packet; its arguments are in CtlArg.
	Ctl CtlKind

	// pooled marks a packet currently resting in the free list; Put uses
	// it to catch double releases (a lifecycle bug that would otherwise
	// surface as impossible-to-debug field corruption two flows away).
	pooled bool

	Size int // total wire size in bytes, headers included

	// Transport state (TCP).
	Seq int64 // first payload byte offset
	Ack int64 // cumulative ack: next expected byte

	// FlowID identifies the end-to-end connection for scheduling and
	// statistics. It is derived from the 5-tuple when flows are created.
	FlowID uint64

	// SACK carries up to four selective-ACK blocks inline, the first
	// NSACK of them valid.
	SACK [4]SACKBlock

	// CtlArg holds the arguments of the control message named by Ctl.
	CtlArg [2]uint64

	TunnelSeq uint64

	// EnqueuedAt is stamped by queues to trace per-queue delays.
	EnqueuedAt clock.Time

	// next links the packet into the Queue that holds it (nil: none, or
	// the queue's tail).
	next *Packet

	// owner is the single-owner Pool the packet's storage belongs to (nil:
	// the shared global pool). It survives the reset in Put so releases
	// route back to the owning partition, and it changes only through
	// Transfer at a shard barrier — never mid-flight.
	owner *Pool
}

// Queue is a FIFO of packets linked through the packets themselves:
// pushing and popping allocate nothing, and an empty Queue holds no
// storage whatever it has served. A packet is in at most one Queue at a
// time; the zero Queue is empty and ready to use.
type Queue struct {
	head, tail *Packet
	n, bytes   int
}

// Len reports the queued packets.
func (q *Queue) Len() int { return q.n }

// Bytes reports the queued packets' total Size.
func (q *Queue) Bytes() int { return q.bytes }

// Push appends p at the tail. p must not be in a queue.
func (q *Queue) Push(p *Packet) {
	if p.next != nil || p == q.tail {
		panic("pkt: packet pushed while in a queue")
	}
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
	q.bytes += p.Size
}

// Peek returns the head packet without removing it, or nil when empty.
func (q *Queue) Peek() *Packet { return q.head }

// Pop removes and returns the head packet, unlinked, or nil when empty.
func (q *Queue) Pop() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	q.n--
	q.bytes -= p.Size
	return p
}

// Pool bookkeeping. Counters are global (sweeps run engines on many
// goroutines against the one pool) and monotonically increasing; the
// benchmark (bench/) differences them around a run to price it in
// packets, and the invariant tests use Live to check conservation.
var (
	pool     sync.Pool
	getCount atomic.Int64
	putCount atomic.Int64
	newCount atomic.Int64
)

// PoolStats is a snapshot of the packet pool counters.
type PoolStats struct {
	// Gets counts packets handed out by Get (the number of packets
	// "sent" since process start, pooled or fresh).
	Gets int64
	// Puts counts packets released back by Put.
	Puts int64
	// News counts pool misses: Gets served by a never-used packet
	// rather than a recycled one.
	News int64
}

// Stats returns a snapshot of the pool counters.
func Stats() PoolStats {
	return PoolStats{Gets: getCount.Load(), Puts: putCount.Load(), News: newCount.Load()}
}

// Live reports packets currently outstanding: handed out by Get and not
// yet returned by Put. Packets constructed directly (tests) and never
// released bias it low; packets dropped into test blackholes bias it
// high — treat it as a conservation signal, not an exact census.
func Live() int64 { return getCount.Load() - putCount.Load() }

// Get returns a zeroed packet from the pool, allocating only on a pool
// miss. The caller owns it until hand-off (see the Packet lifecycle
// contract above).
func Get() *Packet {
	getCount.Add(1)
	if v := pool.Get(); v != nil {
		p := v.(*Packet)
		p.pooled = false
		return p
	}
	newCount.Add(1)
	return new(Packet)
}

// Put releases a packet back to the pool it belongs to: the per-shard
// Pool that issued it, or the shared global pool. Only the packet's
// current owner may call it, exactly once; releasing a packet twice
// panics. Packets built with plain &Packet{} (tests do this) may be
// released too — the global pool adopts them.
func Put(p *Packet) {
	if pl := p.owner; pl != nil {
		pl.Put(p)
		return
	}
	if p.pooled {
		panic("pkt: packet released twice")
	}
	*p = Packet{pooled: true}
	putCount.Add(1)
	pool.Put(p)
}

// Pool is a single-owner packet free list for one event-engine shard.
// Unlike the global pool it is not safe for concurrent use: exactly one
// goroutine (the shard's worker for the current window) may call Get/Put
// at a time. Packets remember their issuing Pool and Put routes them
// back to it even when released by package-level pkt.Put, so code that
// consumes packets never needs to know which shard minted them. Packets
// that physically cross a shard boundary are re-tagged with Transfer at
// the window barrier, where the sharded runner is single-threaded.
//
// The global Gets/Puts/News counters still tick for pool-issued packets:
// the benchmark (bench/) prices runs by differencing Stats() and must
// see per-shard traffic too.
type Pool struct {
	free []*Packet
	slab []Packet // fresh packets, carved pktSlab at a time on a miss

	// Per-pool counters mirror the global ones (same meanings), plus the
	// barrier hand-off tallies. Not atomic: Gets/Puts/News are touched
	// only by the owning shard's worker, XferIn/XferOut only at the
	// single-threaded barrier.
	gets, puts, news int64
	xferIn, xferOut  int64
}

// Get returns a zeroed packet owned by this pool. A nil receiver
// delegates to the shared global pool, so components can hold an
// optional *Pool and call Get unconditionally.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return Get()
	}
	getCount.Add(1)
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.pooled = false
		return p
	}
	newCount.Add(1)
	pl.news++
	if len(pl.slab) == 0 {
		pl.slab = make([]Packet, pktSlab)
	}
	p := &pl.slab[0]
	pl.slab = pl.slab[1:]
	p.owner = pl
	return p
}

// pktSlab is how many packets one pool miss allocates: a partition's
// first packets cost one allocation per slab, not one each. News still
// counts packets, not slabs.
const pktSlab = 32

// Put releases a packet to this pool. The packet must currently be
// tagged with pl as its owner — releasing a foreign packet here would
// silently migrate storage between shards, so it panics instead.
func (pl *Pool) Put(p *Packet) {
	if p.owner != pl {
		panic("pkt: packet released to a pool that does not own it")
	}
	if p.pooled {
		panic("pkt: packet released twice")
	}
	*p = Packet{pooled: true, owner: pl}
	putCount.Add(1)
	pl.puts++
	pl.free = append(pl.free, p)
}

// Transfer moves ownership of an in-flight packet to dst (nil: the
// global pool), so its eventual Put returns storage to the shard that
// will actually release it. Callers must hold exclusive access to both
// pools — in practice the sharded runner's window barrier, which is
// single-threaded.
func Transfer(p *Packet, dst *Pool) {
	if p.pooled {
		panic("pkt: transfer of a released packet")
	}
	if p.owner == dst {
		return
	}
	if p.owner != nil {
		p.owner.xferOut++
	}
	if dst != nil {
		dst.xferIn++
	}
	p.owner = dst
}

// Stats returns this pool's counter snapshot. TransferredIn/Out count
// packets whose ownership moved into/out of the pool at shard barriers;
// conservation across a run is Gets + TransferredIn ≥ Puts + TransferredOut
// (the slack is packets still in flight).
func (pl *Pool) Stats() (s PoolStats, xferIn, xferOut int64) {
	return PoolStats{Gets: pl.gets, Puts: pl.puts, News: pl.news}, pl.xferIn, pl.xferOut
}

// HeaderBytes is the emulator's fixed per-packet header overhead
// (IP + transport), matching the 40-byte TCP/IPv4 header the paper's MTU
// arithmetic assumes.
const HeaderBytes = 40

// MTU is the wire MTU used throughout the emulator.
const MTU = 1500

// TunnelOverhead is the encapsulation header size Bundler adds per packet
// in tunnel mode (comparable to a minimal L3-in-L3 shim).
const TunnelOverhead = 8

// MSS is the maximum segment payload.
const MSS = MTU - HeaderBytes

// FNV-1a constants (64-bit), per the FNV draft the paper cites.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// EpochHash hashes the header subset the paper's prototype uses to
// identify epoch boundary packets: the IP ID field plus destination IP and
// port (§4.5). Both the sendbox and the receivebox compute this hash on
// every packet; a packet is an epoch boundary when the hash is ≡ 0 modulo
// the current epoch size.
func EpochHash(p *Packet) uint64 {
	h := uint64(fnvOffset)
	step := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	step(byte(p.IPID))
	step(byte(p.IPID >> 8))
	step(byte(p.Dst.Host))
	step(byte(p.Dst.Host >> 8))
	step(byte(p.Dst.Host >> 16))
	step(byte(p.Dst.Host >> 24))
	step(byte(p.Dst.Port))
	step(byte(p.Dst.Port >> 8))
	return h
}

// FlowHash hashes the 5-tuple; qdiscs use it to map packets to buckets.
// The perturbation argument lets SFQ re-key periodically, as the Linux
// implementation does. The hash is byte-wise FNV-1a: word-wise folding
// would leave the low bits (the ones bucket selection uses) dependent on
// only the low input bits.
func FlowHash(p *Packet, perturb uint64) uint64 {
	h := uint64(fnvOffset) ^ perturb
	step := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			h ^= v & 0xFF
			h *= fnvPrime
			v >>= 8
		}
	}
	step(uint64(p.Src.Host), 4)
	step(uint64(p.Src.Port), 2)
	step(uint64(p.Dst.Host), 4)
	step(uint64(p.Dst.Port), 2)
	step(uint64(p.Proto), 1)
	// FNV's low bits avalanche poorly (the multiply never carries high
	// bits downward), and both SFQ buckets and ECMP path choice reduce the
	// hash modulo small powers of two. Finish with a strong mixer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
