// Package tcp implements a packet-level TCP endhost: a sender with
// cumulative ACKs plus SACK, RFC 6675-style loss recovery, RTO with
// exponential backoff, and pluggable congestion control (Reno, Cubic, BBR,
// and a fixed-window variant used to emulate the paper's idealized TCP
// proxy in §7.5).
//
// Bundler deliberately leaves endhost loops untouched, so reproducing the
// paper requires faithful endhost dynamics: slow start overshoot, Cubic's
// probing to loss, and BBR's pacing are all load-bearing in the
// evaluation. The model sends a configurable number of payload bytes from
// sender to receiver; the receiver ACKs every data packet (no delayed
// ACKs) and reports up to four SACK blocks, matching a modern Linux stack.
// Windows and transfer sizes are bytes, pacing rates bits/second, and all
// timers run on clock.Time.
package tcp

import (
	"cmp"
	"fmt"
	"slices"

	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
)

// Timer constants (RFC 6298, with the common Linux-style 200 ms floor).
const (
	minRTO     = 200 * clock.Millisecond
	initialRTO = 1 * clock.Second
	maxRTO     = 60 * clock.Second
)

// InitialCwnd is the initial congestion window in segments (RFC 6928).
const InitialCwnd = 10

// sackDupThresh mirrors the 3-dupack reordering allowance: a segment is
// declared lost once SACKed bytes reach this many segments past its end.
const sackDupThresh = 3

// SACKBlock reports one contiguous received range in an ACK. It travels
// inline in the packet header (see pkt.Packet.SACK); the alias keeps
// the transport's vocabulary intact.
type SACKBlock = pkt.SACKBlock

// Sender transmits Size payload bytes to Dst and consumes the ACK stream.
// It implements netem.Receiver for incoming ACKs.
type Sender struct {
	eng    clock.Clock
	out    netem.Receiver
	src    pkt.Addr
	dst    pkt.Addr
	flowID uint64
	size   int64
	cc     Congestion

	sndUna    int64
	sb        scoreboard // the segments in [sndUna, sndNxt)
	dupacks   int
	recoverPt int64 // the end of the window recovery repairs (see recovery)

	srtt, rttvar, rto clock.Time
	lastRTT           clock.Time
	maxRTT            clock.Time // the largest RTT sample
	lastAckAt         clock.Time // when sndUna last advanced
	rtoTimer          clock.Timer

	nextSendAt clock.Time
	paceTimer  clock.Timer // created on first use: only BBR paces
	pool       *pkt.Pool

	// The small fields share one word: a sender is most of a recycled
	// connection record, which a fabric carves 16 at a time.
	ipid       uint16
	recovery   bool
	started    bool
	done       bool
	StartedAt  clock.Time
	DoneAt     clock.Time
	onComplete Completion

	// Counters for tests and stats.
	DataSent    int
	Retransmits int
	Timeouts    int
}

// Completion is told when an endpoint's transfer completes: a sender's
// at the final byte's cumulative acknowledgement, a receiver's at the
// last byte's in-order arrival. It is an interface rather than a func
// value so that an owner keeping both endpoints in one record hands in
// that record (through a named conversion per endpoint) and wiring a
// flow allocates no bound method value.
type Completion interface {
	Complete(now clock.Time)
}

// CompletionFunc adapts a function to the Completion interface.
type CompletionFunc func(now clock.Time)

// Complete implements Completion.
func (f CompletionFunc) Complete(now clock.Time) { f(now) }

// completion is fn as a Completion; a nil fn is none.
func completion(fn func(now clock.Time)) Completion {
	if fn == nil {
		return nil
	}
	return CompletionFunc(fn)
}

// NewSender constructs a sender for a size-byte transfer. out is the first
// hop of the egress path; onComplete (optional) fires when the final byte
// is cumulatively acknowledged.
func NewSender(eng clock.Clock, out netem.Receiver, src, dst pkt.Addr, flowID uint64, size int64, cc Congestion, onComplete func(now clock.Time)) *Sender {
	s := new(Sender)
	s.Init(eng, out, src, dst, flowID, size, cc, completion(onComplete))
	return s
}

// Init (re)initialises s in place as NewSender's sender, so a finished
// sender can carry the next transfer. Every field starts afresh except
// the storage a finished transfer leaves behind: the RTO and pacing
// timers (stopped, and kept only on the same clock) and the scoreboard
// ring. Re-initialise a sender only once its transfer is over and
// nothing else holds it, in a later event than its completion.
func (s *Sender) Init(eng clock.Clock, out netem.Receiver, src, dst pkt.Addr, flowID uint64, size int64, cc Congestion, onComplete Completion) {
	if size <= 0 {
		panic("tcp: transfer size must be positive")
	}
	rtoTimer, paceTimer := s.rtoTimer, s.paceTimer
	if s.eng != eng { // a timer belongs to one clock; a zero Sender has none
		rtoTimer, paceTimer = eng.NewCallTimer(senderRTO, s, nil), nil
	}
	rtoTimer.Stop()
	if paceTimer != nil {
		paceTimer.Stop()
	}
	*s = Sender{
		eng: eng, out: out, src: src, dst: dst, flowID: flowID, size: size,
		cc: cc, rto: initialRTO, onComplete: onComplete, sb: newScoreboard(size, s.sb.ring),
		rtoTimer: rtoTimer, paceTimer: paceTimer,
	}
}

// Start begins the transfer.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.StartedAt = s.eng.Now()
	s.trySend()
}

// SetPool makes the sender mint packets from a partition-local pool
// (nil keeps the shared global pool). Call before Start.
func (s *Sender) SetPool(pl *pkt.Pool) { s.pool = pl }

// Done reports whether every byte has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// FlowID returns the flow identifier packets carry.
func (s *Sender) FlowID() uint64 { return s.flowID }

// Acked reports cumulatively acknowledged bytes.
func (s *Sender) Acked() int64 { return s.sndUna }

// Size reports the transfer size in bytes.
func (s *Sender) Size() int64 { return s.size }

// trySend transmits retransmissions first, then new data, as the window
// (and pacing rate) allows.
func (s *Sender) trySend() {
	if s.done || !s.started {
		return
	}
	for {
		if float64(s.sb.pipe)+1 > s.cc.CwndBytes() {
			return
		}
		if pr := s.cc.PacingRate(); pr > 0 {
			now := s.eng.Now()
			if now < s.nextSendAt {
				if s.paceTimer == nil {
					s.paceTimer = s.eng.NewCallTimer(senderPace, s, nil)
				}
				if !s.paceTimer.Pending() {
					s.paceTimer.ArmAt(s.nextSendAt)
				}
				return
			}
		}
		if k := s.sb.nextLost(); k >= 0 {
			s.retransmit(k)
			continue
		}
		if s.sb.sndNxt() < s.size {
			s.sendNew()
			continue
		}
		return
	}
}

func (s *Sender) sendNew() {
	now := s.eng.Now()
	s.emit(s.sb.sendNew(now), false, now)
}

func (s *Sender) retransmit(k int64) {
	now := s.eng.Now()
	s.sb.retransmit(k, now)
	s.Retransmits++
	s.emit(k, true, now)
}

// emit puts segment k, just recorded on the scoreboard, on the wire.
// Every transmission — including retransmissions — gets a fresh IP ID,
// the property Bundler's epoch hash relies on to avoid spurious samples
// (§4.5).
func (s *Sender) emit(k int64, retx bool, now clock.Time) {
	s.ipid++
	s.DataSent++
	p := s.pool.Get()
	p.IPID = s.ipid
	p.Src = s.src
	p.Dst = s.dst
	p.Proto = pkt.ProtoTCP
	p.Size = int(s.sb.length(k)) + pkt.HeaderBytes
	p.Seq = k * pkt.MSS
	p.FlowID = s.flowID
	p.Retransmit = retx
	if pr := s.cc.PacingRate(); pr > 0 {
		if s.nextSendAt < now {
			s.nextSendAt = now
		}
		s.nextSendAt += clock.Time(float64(p.Size*8) / pr * float64(clock.Second))
	}
	if !s.rtoTimer.Pending() {
		s.rtoTimer.ArmAfter(s.rto)
	}
	s.out.Receive(p)
}

func (s *Sender) rearmRTO() {
	if s.sndUna < s.sb.sndNxt() {
		s.rtoTimer.ArmAfter(s.rto)
	} else {
		s.rtoTimer.Stop()
	}
}

// senderRTO and senderPace are the timer callbacks of the sender in a0.
func senderRTO(a0, _ any)  { a0.(*Sender).onRTO() }
func senderPace(a0, _ any) { a0.(*Sender).trySend() }

func (s *Sender) onRTO() {
	if s.done {
		return
	}
	s.Timeouts++
	s.cc.OnTimeout(s.eng.Now())
	s.sb.loseAll()
	s.dupacks = 0
	s.recovery = true
	s.recoverPt = s.sb.sndNxt()
	s.rto *= 2
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	s.rtoTimer.ArmAfter(s.rto)
	s.trySend()
}

// Receive implements netem.Receiver; the sender consumes (and releases)
// ACKs.
func (s *Sender) Receive(p *pkt.Packet) {
	if s.done || p.Flags&pkt.FlagACK == 0 {
		pkt.Put(p)
		return
	}
	now := s.eng.Now()
	ack := p.Ack
	blocks := p.SACK[:p.NSACK]

	cumAdvance := ack > s.sndUna
	if cumAdvance {
		if sent, ok := s.sb.ackTo(ack); ok {
			s.sampleRTT(now - sent)
		}
		newly := ack - s.sndUna
		s.sndUna, s.lastAckAt = ack, now
		s.dupacks = 0
		s.cc.OnAck(int(newly), s.lastRTT, now)
		if s.recovery && ack >= s.recoverPt {
			s.recovery = false
		}
		if s.sndUna >= s.size {
			s.complete(now)
			pkt.Put(p)
			return
		}
		s.rearmRTO()
	}

	if len(blocks) > 0 {
		s.sb.sack(blocks)
	}
	newLoss := s.sb.markLost()
	if !cumAdvance {
		s.dupacks++
		// Fallback for SACK-less peers: third dupack implies the first
		// outstanding segment was lost.
		if s.dupacks >= sackDupThresh && p.NSACK == 0 && s.sb.loseFirst() {
			newLoss = true
		}
	}
	pkt.Put(p)
	if newLoss && !s.recovery {
		s.recovery = true
		s.recoverPt = s.sb.sndNxt()
		s.cc.OnLoss(now)
	}
	s.trySend()
}

var _ netem.Receiver = (*Sender)(nil)

// sampleRTT feeds one round-trip measurement to the RFC 6298 estimator.
func (s *Sender) sampleRTT(rtt clock.Time) {
	s.lastRTT = rtt
	s.maxRTT = max(s.maxRTT, rtt)
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

func (s *Sender) complete(now clock.Time) {
	s.Abort() // stop the timers, end the scoreboard
	s.DoneAt = now
	if s.onComplete != nil {
		s.onComplete.Complete(now)
	}
}

// Stall is a sender's state, as a record that explains an unfinished
// transfer: how far it got and what its loss recovery and RTT
// estimator were doing.
type Stall struct {
	FlowID      uint64
	Size, Acked int64      // bytes: the transfer's, and sndUna
	Start       clock.Time // when the transfer started
	LastAck     clock.Time // when sndUna last advanced; 0 if it never did
	SRTT, RTO   clock.Time
	RTOAtCap    bool // RTO has backed off to its 60 s cap
	MaxRTT      clock.Time
	Timeouts    int
	Retransmits int
	Recovery    bool
	CwndBytes   float64
}

// Stall returns the sender's state as a Stall record.
func (s *Sender) Stall() Stall {
	return Stall{FlowID: s.flowID, Size: s.size, Acked: s.sndUna, Start: s.StartedAt, LastAck: s.lastAckAt,
		SRTT: s.srtt, RTO: s.rto, RTOAtCap: s.rto >= maxRTO, MaxRTT: s.maxRTT, Timeouts: s.Timeouts,
		Retransmits: s.Retransmits, Recovery: s.recovery, CwndBytes: s.cc.CwndBytes()}
}

// Abort stops the transfer immediately without marking it complete:
// timers are cancelled and no further packets are sent. Experiments use it
// to model cross traffic that departs (Figure 10's phase changes).
func (s *Sender) Abort() {
	s.done = true
	s.rtoTimer.Stop()
	if s.paceTimer != nil {
		s.paceTimer.Stop()
	}
	s.sb.release()
}

// Receiver consumes data packets, reassembles the byte stream, and emits
// an ACK (with up to four SACK blocks) per packet on its egress. It
// implements netem.Receiver.
type Receiver struct {
	eng    clock.Clock
	out    netem.Receiver
	addr   pkt.Addr
	peer   pkt.Addr
	flowID uint64
	size   int64

	rcvNxt int64
	ooo    []interval
	ipid   uint16
	pool   *pkt.Pool

	done       bool
	onComplete Completion
}

type interval struct{ start, end int64 }

// NewReceiver constructs the receiving endpoint of a size-byte transfer.
// out is the first hop of the reverse (ACK) path; onComplete fires when
// the last payload byte arrives in order.
func NewReceiver(eng clock.Clock, out netem.Receiver, addr, peer pkt.Addr, flowID uint64, size int64, onComplete func(now clock.Time)) *Receiver {
	r := new(Receiver)
	r.Init(eng, out, addr, peer, flowID, size, completion(onComplete))
	return r
}

// Init (re)initialises r in place as NewReceiver's receiver. Every field
// starts afresh except the reassembly list's backing array; the rule for
// reuse is Sender.Init's.
func (r *Receiver) Init(eng clock.Clock, out netem.Receiver, addr, peer pkt.Addr, flowID uint64, size int64, onComplete Completion) {
	*r = Receiver{eng: eng, out: out, addr: addr, peer: peer, flowID: flowID, size: size,
		ooo: r.ooo[:0], onComplete: onComplete}
}

// SetPool makes the receiver mint ACKs from a partition-local pool (nil
// keeps the shared global pool).
func (r *Receiver) SetPool(pl *pkt.Pool) { r.pool = pl }

// Receive implements netem.Receiver; the receiver consumes (and
// releases) data packets.
func (r *Receiver) Receive(p *pkt.Packet) {
	if p.Proto != pkt.ProtoTCP || p.Flags&pkt.FlagACK != 0 {
		pkt.Put(p)
		return
	}
	payload := int64(p.Size - pkt.HeaderBytes)
	seq := p.Seq
	pkt.Put(p)
	r.insert(seq, seq+payload)
	if !r.done && r.rcvNxt >= r.size {
		r.done = true
		if r.onComplete != nil {
			r.onComplete.Complete(r.eng.Now())
		}
	}
	r.sendAck()
}

// Done reports whether the whole stream arrived.
func (r *Receiver) Done() bool { return r.done }

// insert merges [start, end) into the reassembly state and advances
// rcvNxt across any now-contiguous prefix. The common in-order arrival,
// with nothing buffered out of order, only advances rcvNxt; otherwise
// the interval list is kept sorted by insertion (a shift-and-merge in
// place), so it never sorts.
func (r *Receiver) insert(start, end int64) {
	if end <= r.rcvNxt {
		return // stale retransmit
	}
	if start <= r.rcvNxt && len(r.ooo) == 0 {
		r.rcvNxt = end
		return
	}
	if start < r.rcvNxt {
		start = r.rcvNxt
	}
	// Insert in sorted position.
	i := len(r.ooo)
	for i > 0 && r.ooo[i-1].start > start {
		i--
	}
	r.ooo = append(r.ooo, interval{})
	copy(r.ooo[i+1:], r.ooo[i:])
	r.ooo[i] = interval{start, end}
	// Merge overlapping/adjacent runs in place.
	merged := r.ooo[:1]
	for _, iv := range r.ooo[1:] {
		if n := len(merged); iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
		} else {
			merged = append(merged, iv)
		}
	}
	r.ooo = merged
	// Advance the contiguous prefix, compacting without dropping the
	// backing array (the list is reused for the connection's lifetime).
	k := 0
	for k < len(r.ooo) && r.ooo[k].start <= r.rcvNxt {
		if r.ooo[k].end > r.rcvNxt {
			r.rcvNxt = r.ooo[k].end
		}
		k++
	}
	if k > 0 {
		copy(r.ooo, r.ooo[k:])
		r.ooo = r.ooo[:len(r.ooo)-k]
	}
}

func (r *Receiver) sendAck() {
	r.ipid++
	p := r.pool.Get()
	p.IPID = r.ipid
	p.Src = r.addr
	p.Dst = r.peer
	p.Proto = pkt.ProtoTCP
	p.Size = pkt.HeaderBytes
	p.Ack = r.rcvNxt
	p.Flags = pkt.FlagACK
	p.FlowID = r.flowID
	for i := 0; i < len(r.ooo) && i < 4; i++ {
		p.SACK[i] = SACKBlock{Start: r.ooo[i].start, End: r.ooo[i].end}
		p.NSACK = uint8(i + 1)
	}
	r.out.Receive(p)
}

// Mux routes packets to registered endpoints by destination address. It is
// the site-internal dispatch both endpoints and Bundler control messages
// share.
type Mux struct {
	routes  map[pkt.Addr]netem.Receiver
	dropped int
}

// NewMux returns an empty address mux.
func NewMux() *Mux { return NewMuxSized(0) }

// NewMuxSized returns an empty address mux with room for routes routes.
func NewMuxSized(routes int) *Mux { return &Mux{routes: make(map[pkt.Addr]netem.Receiver, routes)} }

// Register installs r as the receiver for packets addressed to a.
// Registering the same address twice panics: it always indicates an
// address-allocation bug in scenario wiring.
func (m *Mux) Register(a pkt.Addr, r netem.Receiver) {
	if _, dup := m.routes[a]; dup {
		panic(fmt.Sprintf("tcp: duplicate mux registration for %+v", a))
	}
	m.routes[a] = r
}

// Unregister removes the route for a (flows that finished).
func (m *Mux) Unregister(a pkt.Addr) { delete(m.routes, a) }

// Receive implements netem.Receiver.
func (m *Mux) Receive(p *pkt.Packet) {
	if r, ok := m.routes[p.Dst]; ok {
		r.Receive(p)
		return
	}
	m.dropped++
	pkt.Put(p)
}

// Dropped reports packets with no registered endpoint.
func (m *Mux) Dropped() int { return m.dropped }

// Stalls returns the state of every registered sender that has not
// completed, in flow-ID order: what a run that stops at its horizon
// unfinished still has in flight.
func (m *Mux) Stalls() []Stall {
	var out []Stall
	for _, r := range m.routes {
		if s, ok := r.(*Sender); ok && !s.done {
			out = append(out, s.Stall())
		}
	}
	slices.SortFunc(out, func(a, b Stall) int { return cmp.Compare(a.FlowID, b.FlowID) })
	return out
}
