package bundle

import (
	"bundler/internal/netem"
	"bundler/internal/pkt"
)

// BundleClassifier maps an egress packet to the index of the bundle (and
// thus the sendbox-receivebox pair) that carries it — in practice the
// destination site's prefix.
type BundleClassifier func(*pkt.Packet) int

// MultiSendbox is one physical source-site box serving several bundles
// (§9: "a given sendbox will see traffic from multiple bundles"). Each
// bundle keeps its own inner loop, queue, and pacing rate — per-site
// fairness, as §9's rate-allocation discussion requires — and the
// classifier steers each packet to its bundle. Control traffic returning
// from any of the receiveboxes is forwarded to every member box; each
// consumes only messages addressed to it.
type MultiSendbox struct {
	boxes    []*Sendbox
	classify BundleClassifier
	// Misrouted counts packets the classifier mapped out of range.
	Misrouted int
}

// NewMultiSendbox groups the given per-bundle sendboxes behind one
// classifier. classify must return an index in [0, len(boxes)); anything
// else falls back to bundle 0 and is counted.
func NewMultiSendbox(classify BundleClassifier, boxes ...*Sendbox) *MultiSendbox {
	if len(boxes) == 0 {
		panic("bundle: MultiSendbox needs at least one sendbox")
	}
	if classify == nil {
		panic("bundle: MultiSendbox needs a classifier")
	}
	return &MultiSendbox{boxes: boxes, classify: classify}
}

// Receive implements netem.Receiver.
func (m *MultiSendbox) Receive(p *pkt.Packet) {
	if p.Proto == pkt.ProtoCtl {
		for _, b := range m.boxes {
			if p.Dst == b.ctlAddr {
				b.Receive(p)
				return
			}
		}
		// Not ours: drop silently (mirrors a host discarding a stray
		// datagram).
		pkt.Put(p)
		return
	}
	i := m.classify(p)
	if i < 0 || i >= len(m.boxes) {
		m.Misrouted++
		i = 0
	}
	m.boxes[i].Receive(p)
}

// box returns the i-th member sendbox.
func (m *MultiSendbox) box(i int) *Sendbox { return m.boxes[i] }

// Stop halts every member's control loop.
func (m *MultiSendbox) Stop() {
	for _, b := range m.boxes {
		b.Stop()
	}
}

var _ netem.Receiver = (*MultiSendbox)(nil)
