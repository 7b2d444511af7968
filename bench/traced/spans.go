package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
)

// A layer names the component a span is a call into.
type layer uint8

const (
	tcpSender layer = iota
	tcpReceiver
	sendbox
	receivebox
	qdiscLayer
	link
	mux
	numLayers
)

var layerNames = [numLayers]string{"tcp_sender", "tcp_receiver", "sendbox", "receivebox", "qdisc", "link", "mux"}

// span is one call across a layer boundary. Times are nanoseconds since
// the tracer started. parent is the ID of the span that was open when
// this one began (0: none, the call came from an engine callback); flow
// is the packet's flow ID, shared by every span of one flow (0 for
// Bundler control packets).
type span struct {
	id, parent uint64
	flow       uint64
	start, end int64
	layer      layer
}

// ringSize is how many of the latest spans are kept for the JSONL file;
// the totals below cover every span.
const ringSize = 1 << 16

// tracer records spans into a preallocated ring and keeps per-layer
// totals as spans close. A nil *tracer records nothing and wraps
// nothing: the untraced run has no shims at all.
type tracer struct {
	base   time.Time
	ring   []span
	next   uint64 // spans begun so far; the ID of the latest
	open   []openSpan
	self   [numLayers]int64 // ns, children excluded
	count  [numLayers]int64
	rootNs int64 // ns covered by spans that have no parent
}

type openSpan struct {
	id       uint64
	start    int64
	children int64 // ns covered by child spans
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ring: make([]span, ringSize), open: make([]openSpan, 0, 64)}
}

func (t *tracer) begin() {
	t.next++
	t.open = append(t.open, openSpan{id: t.next, start: int64(time.Since(t.base))})
}

func (t *tracer) end(l layer, flow uint64) {
	end := int64(time.Since(t.base))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := end - o.start
	t.self[l] += dur - o.children
	t.count[l]++
	var parent uint64
	if n := len(t.open); n > 0 {
		t.open[n-1].children += dur
		parent = t.open[n-1].id
	} else {
		t.rootNs += dur
	}
	t.ring[o.id%ringSize] = span{id: o.id, parent: parent, flow: flow, start: o.start, end: end, layer: l}
}

// recvShim is the shim at a Receive hand-off into layer l.
type recvShim struct {
	t    *tracer
	l    layer
	next netem.Receiver
}

func (s *recvShim) Receive(p *pkt.Packet) {
	flow := p.FlowID // the callee owns p after the call
	s.t.begin()
	s.next.Receive(p)
	s.t.end(s.l, flow)
}

// recv wraps the hand-off into r, a component of layer l.
func (t *tracer) recv(l layer, r netem.Receiver) netem.Receiver {
	if t == nil {
		return r
	}
	return &recvShim{t, l, r}
}

// observe wraps the Receivebox's datapath tap.
func (t *tracer) observe(fn func(*pkt.Packet)) func(*pkt.Packet) {
	if t == nil {
		return fn
	}
	return func(p *pkt.Packet) {
		t.begin()
		fn(p)
		t.end(receivebox, p.FlowID)
	}
}

// qdiscShim is the shim around a scheduler's Enqueue and Dequeue.
type qdiscShim struct {
	qdisc.Qdisc
	t *tracer
}

func (s *qdiscShim) Enqueue(p *pkt.Packet) bool {
	flow := p.FlowID
	s.t.begin()
	ok := s.Qdisc.Enqueue(p)
	s.t.end(qdiscLayer, flow)
	return ok
}

func (s *qdiscShim) Dequeue() *pkt.Packet {
	s.t.begin()
	p := s.Qdisc.Dequeue()
	var flow uint64
	if p != nil {
		flow = p.FlowID
	}
	s.t.end(qdiscLayer, flow)
	return p
}

func (t *tracer) qdisc(q qdisc.Qdisc) qdisc.Qdisc {
	if t == nil {
		return q
	}
	return &qdiscShim{q, t}
}

// writeJSONL writes the spans still in the ring, oldest first, one JSON
// object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first := uint64(1)
	if t.next > ringSize {
		first = t.next - ringSize + 1
	}
	for id := first; id <= t.next; id++ {
		s := t.ring[id%ringSize]
		if s.id != id {
			continue // still open when the run ended
		}
		err := enc.Encode(struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Flow   uint64 `json:"flow"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.id, s.parent, layerNames[s.layer], s.flow, s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
