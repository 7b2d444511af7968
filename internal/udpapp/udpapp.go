// Package udpapp provides the UDP workloads the paper's real-path
// evaluation (§8) uses: closed-loop request/response pairs whose RTTs
// measure scheduling latency, and a paced constant-bit-rate stream that
// models application-limited (non-buffer-filling) traffic such as video.
package udpapp

import (
	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/stats"
)

// RequestSize is the paper's §8 probe size: 40-byte UDP request/response.
const RequestSize = 40

// PingClient issues closed-loop request/response probes: a new request is
// sent as soon as the previous response arrives. It implements
// netem.Receiver for responses.
type PingClient struct {
	eng    clock.Clock
	out    netem.Receiver
	addr   pkt.Addr
	server pkt.Addr
	flowID uint64

	ipid    uint16
	lastReq clock.Time
	waiting bool
	pool    *pkt.Pool

	// Series records each request-response round-trip time, in
	// milliseconds, against the virtual time it completed.
	Series stats.TimeSeries
}

// NewPingClient builds a closed-loop probe client targeting server.
func NewPingClient(eng clock.Clock, out netem.Receiver, addr, server pkt.Addr, flowID uint64) *PingClient {
	return &PingClient{eng: eng, out: out, addr: addr, server: server, flowID: flowID}
}

// SetPool makes the client mint requests from a partition-local pool
// (nil keeps the shared global pool). Call before Start.
func (c *PingClient) SetPool(pl *pkt.Pool) { c.pool = pl }

// Start sends the first request.
func (c *PingClient) Start() { c.sendRequest() }

func (c *PingClient) sendRequest() {
	c.ipid++
	c.lastReq = c.eng.Now()
	c.waiting = true
	p := c.pool.Get()
	p.IPID = c.ipid
	p.Src = c.addr
	p.Dst = c.server
	p.Proto = pkt.ProtoUDP
	p.Size = RequestSize + pkt.HeaderBytes
	p.FlowID = c.flowID
	c.out.Receive(p)
}

// Receive implements netem.Receiver: a response completes the loop.
// The response packet is consumed and released.
func (c *PingClient) Receive(p *pkt.Packet) {
	proto := p.Proto
	pkt.Put(p)
	if !c.waiting || proto != pkt.ProtoUDP {
		return
	}
	c.waiting = false
	rtt := (c.eng.Now() - c.lastReq).Millis()
	c.Series.Add(c.eng.Now(), rtt)
	c.sendRequest()
}

// PingServer echoes each request back to its source. It implements
// netem.Receiver.
type PingServer struct {
	eng  clock.Clock
	out  netem.Receiver
	addr pkt.Addr
	ipid uint16
	pool *pkt.Pool

	// Served counts completed responses.
	Served int
}

// NewPingServer builds an echo server at addr whose responses leave via
// out.
func NewPingServer(eng clock.Clock, out netem.Receiver, addr pkt.Addr) *PingServer {
	return &PingServer{eng: eng, out: out, addr: addr}
}

// SetPool makes the server mint responses from a partition-local pool
// (nil keeps the shared global pool).
func (s *PingServer) SetPool(pl *pkt.Pool) { s.pool = pl }

// Receive implements netem.Receiver. The request is consumed and
// released; the response is a fresh pooled packet.
func (s *PingServer) Receive(p *pkt.Packet) {
	if p.Proto != pkt.ProtoUDP {
		pkt.Put(p)
		return
	}
	s.ipid++
	s.Served++
	resp := s.pool.Get()
	resp.IPID = s.ipid
	resp.Src = s.addr
	resp.Dst = p.Src
	resp.Proto = pkt.ProtoUDP
	resp.Size = RequestSize + pkt.HeaderBytes
	resp.FlowID = p.FlowID
	pkt.Put(p)
	s.out.Receive(resp)
}

// CBRStream emits fixed-size UDP packets at a constant bit rate: an
// application-limited source that never fills buffers, the "paced video
// stream" class of cross traffic from §3.
type CBRStream struct {
	eng     clock.Clock
	out     netem.Receiver
	src     pkt.Addr
	dst     pkt.Addr
	flowID  uint64
	rate    float64 // bits per second
	pktSize int
	ipid    uint16
	ticker  clock.Ticker
	pool    *pkt.Pool
}

// NewCBRStream builds a constant-bit-rate source. pktSize is the wire size
// per packet.
func NewCBRStream(eng clock.Clock, out netem.Receiver, src, dst pkt.Addr, flowID uint64, rateBps float64, pktSize int) *CBRStream {
	if rateBps <= 0 || pktSize <= 0 {
		panic("udpapp: CBR rate and packet size must be positive")
	}
	return &CBRStream{eng: eng, out: out, src: src, dst: dst, flowID: flowID, rate: rateBps, pktSize: pktSize}
}

// SetPool makes the stream mint packets from a partition-local pool
// (nil keeps the shared global pool). Call before Start.
func (c *CBRStream) SetPool(pl *pkt.Pool) { c.pool = pl }

// Start begins emission; Stop ends it.
func (c *CBRStream) Start() {
	interval := clock.Time(float64(c.pktSize*8) / c.rate * float64(clock.Second))
	if interval < 1 {
		interval = 1
	}
	c.ticker = c.eng.Tick(interval, c.emit)
}

// Stop halts the stream.
func (c *CBRStream) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

func (c *CBRStream) emit() {
	c.ipid++
	p := c.pool.Get()
	p.IPID = c.ipid
	p.Src = c.src
	p.Dst = c.dst
	p.Proto = pkt.ProtoUDP
	p.Size = c.pktSize
	p.FlowID = c.flowID
	c.out.Receive(p)
}
