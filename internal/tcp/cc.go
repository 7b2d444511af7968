package tcp

import (
	"math"

	"bundler/internal/clock"
	"bundler/internal/pkt"
	"bundler/internal/stats"
)

// Congestion is the endhost congestion-control plug-in interface. All
// window quantities are in bytes.
type Congestion interface {
	// OnAck is called for each cumulative ACK advancing the window by
	// acked bytes, with the latest RTT sample (0 if none was available).
	OnAck(acked int, rtt, now clock.Time)
	// OnLoss is called on a fast-retransmit loss event.
	OnLoss(now clock.Time)
	// OnTimeout is called when the retransmission timer fires.
	OnTimeout(now clock.Time)
	// CwndBytes returns the current congestion window.
	CwndBytes() float64
	// PacingRate returns the pacing rate in bits/second, or 0 for pure
	// window (ack-clocked) operation.
	PacingRate() float64
}

const mssF = float64(pkt.MSS)

// Reno implements TCP NewReno congestion control.
type Reno struct {
	cwnd     float64
	ssthresh float64
}

// NewReno returns a Reno controller with the standard initial window.
func NewReno() *Reno {
	r := new(Reno)
	r.Init()
	return r
}

// Init (re)starts r in place as NewReno's controller.
func (r *Reno) Init() { *r = Reno{cwnd: InitialCwnd * mssF, ssthresh: math.Inf(1)} }

// OnAck implements Congestion.
func (r *Reno) OnAck(acked int, _, _ clock.Time) {
	if r.cwnd < r.ssthresh {
		r.cwnd += float64(acked)
	} else {
		r.cwnd += mssF * float64(acked) / r.cwnd
	}
}

// OnLoss implements Congestion.
func (r *Reno) OnLoss(clock.Time) {
	r.ssthresh = math.Max(r.cwnd/2, 2*mssF)
	r.cwnd = r.ssthresh
}

// OnTimeout implements Congestion.
func (r *Reno) OnTimeout(clock.Time) {
	r.ssthresh = math.Max(r.cwnd/2, 2*mssF)
	r.cwnd = mssF
}

// CwndBytes implements Congestion.
func (r *Reno) CwndBytes() float64 { return r.cwnd }

// PacingRate implements Congestion.
func (r *Reno) PacingRate() float64 { return 0 }

// Cubic implements TCP Cubic (Ha, Rhee, Xu), the paper's default endhost
// algorithm. Window growth in congestion avoidance follows
// W(t) = C(t-K)^3 + Wmax, with fast convergence.
type Cubic struct {
	cwnd       float64 // bytes
	ssthresh   float64
	wMax       float64 // segments
	epochStart clock.Time
	k          float64 // seconds
	originWin  float64 // segments
}

// Cubic constants from RFC 8312.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// NewCubic returns a Cubic controller.
func NewCubic() *Cubic {
	c := new(Cubic)
	c.Init()
	return c
}

// Init (re)starts c in place as NewCubic's controller.
func (c *Cubic) Init() { *c = Cubic{cwnd: InitialCwnd * mssF, ssthresh: math.Inf(1)} }

// OnAck implements Congestion.
func (c *Cubic) OnAck(acked int, _, now clock.Time) {
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(acked)
		return
	}
	if c.epochStart == 0 {
		c.epochStart = now
		segs := c.cwnd / mssF
		if segs < c.wMax {
			c.k = math.Cbrt((c.wMax - segs) / cubicC)
		} else {
			c.k = 0
		}
		c.originWin = segs
	}
	t := (now - c.epochStart).Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax
	if c.k == 0 {
		target = cubicC*math.Pow(t, 3) + c.originWin
	}
	segs := c.cwnd / mssF
	if target > segs {
		// Approach the cubic target over the next RTT's worth of ACKs.
		c.cwnd += mssF * (target - segs) / segs * float64(acked) / mssF
	} else {
		// Slow (TCP-friendly region handled implicitly): minimal growth.
		c.cwnd += mssF * 0.01 * float64(acked) / c.cwnd
	}
}

// OnLoss implements Congestion.
func (c *Cubic) OnLoss(clock.Time) {
	segs := c.cwnd / mssF
	// Fast convergence: release bandwidth faster when wMax shrinks.
	if segs < c.wMax {
		c.wMax = segs * (1 + cubicBeta) / 2
	} else {
		c.wMax = segs
	}
	c.cwnd = math.Max(c.cwnd*cubicBeta, 2*mssF)
	c.ssthresh = c.cwnd
	c.epochStart = 0
}

// OnTimeout implements Congestion.
func (c *Cubic) OnTimeout(clock.Time) {
	c.OnLoss(0)
	c.cwnd = mssF
	c.epochStart = 0
}

// CwndBytes implements Congestion.
func (c *Cubic) CwndBytes() float64 { return c.cwnd }

// PacingRate implements Congestion.
func (c *Cubic) PacingRate() float64 { return 0 }

// BBR implements a compact BBRv1: windowed-max bandwidth and windowed-min
// RTT estimation, startup/drain, and the 8-phase ProbeBW pacing-gain
// cycle. PROBE_RTT is omitted (flows in the evaluation are either short or
// share the bottleneck with enough churn that min-RTT samples recur); the
// simplification is recorded in docs/ARCHITECTURE.md.
type BBR struct {
	state      bbrState
	btlBw      stats.MaxFilter
	minRTT     clock.Time
	minRTTAt   clock.Time
	cycleIdx   int
	cycleStart clock.Time
	fullBw     float64
	fullBwCnt  int
	pacingGain float64
	cwndGain   float64
	delivered  int64
	lastAckAt  clock.Time
	drainUntil clock.Time
}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
)

var bbrCycleGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

const bbrHighGain = 2.885 // 2/ln(2)

// NewBBR returns a BBR controller.
func NewBBR() *BBR {
	b := new(BBR)
	b.Init()
	return b
}

// Init (re)starts b in place as NewBBR's controller.
func (b *BBR) Init() { *b = BBR{state: bbrStartup, pacingGain: bbrHighGain, cwndGain: bbrHighGain} }

// OnAck implements Congestion.
func (b *BBR) OnAck(acked int, rtt, now clock.Time) {
	if rtt > 0 && (b.minRTT == 0 || rtt < b.minRTT || now-b.minRTTAt > 10*clock.Second) {
		b.minRTT = rtt
		b.minRTTAt = now
	}
	// Delivery-rate sample: bytes ACKed over the inter-ACK gap. With an
	// ACK per packet this recovers the bottleneck rate (ack clocking).
	if b.lastAckAt != 0 && now > b.lastAckAt {
		rate := float64(acked) * 8 / (now - b.lastAckAt).Seconds()
		b.btlBw.Update(now, rate, 10*b.rtprop())
	}
	b.lastAckAt = now
	b.delivered += int64(acked)

	switch b.state {
	case bbrStartup:
		bw := b.btlBw.Get()
		if bw > b.fullBw*1.25 {
			b.fullBw = bw
			b.fullBwCnt = 0
		} else if bw > 0 {
			b.fullBwCnt++
			if b.fullBwCnt >= 3 {
				b.state = bbrDrain
				b.pacingGain = 1 / bbrHighGain
				b.drainUntil = now + b.rtprop()
			}
		}
	case bbrDrain:
		if now >= b.drainUntil {
			b.state = bbrProbeBW
			b.pacingGain = 1
			b.cwndGain = 2
			b.cycleIdx = 0
			b.cycleStart = now
		}
	case bbrProbeBW:
		if now-b.cycleStart >= b.rtprop() {
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrCycleGains)
			b.cycleStart = now
			b.pacingGain = bbrCycleGains[b.cycleIdx]
		}
	}
}

func (b *BBR) rtprop() clock.Time {
	if b.minRTT == 0 {
		return 100 * clock.Millisecond
	}
	return b.minRTT
}

// OnLoss implements Congestion. BBRv1 ignores individual losses.
func (b *BBR) OnLoss(clock.Time) {}

// OnTimeout implements Congestion.
func (b *BBR) OnTimeout(clock.Time) {}

func (b *BBR) bdp() float64 {
	bw := b.btlBw.Get()
	if bw == 0 {
		return InitialCwnd * mssF
	}
	return bw / 8 * b.rtprop().Seconds()
}

// CwndBytes implements Congestion.
func (b *BBR) CwndBytes() float64 {
	w := b.cwndGain * b.bdp()
	if w < 4*mssF {
		w = 4 * mssF
	}
	return w
}

// PacingRate implements Congestion.
func (b *BBR) PacingRate() float64 {
	bw := b.btlBw.Get()
	if bw == 0 {
		// Until the first bandwidth sample, pace at initial window per
		// assumed RTT.
		return InitialCwnd * mssF * 8 / b.rtprop().Seconds() * b.pacingGain
	}
	return b.pacingGain * bw
}

// FixedCwnd holds the congestion window constant: the paper's §7.5
// idealized-proxy emulation pins endhost windows at 450 packets.
type FixedCwnd struct{ w float64 }

// NewFixedCwnd returns a controller with a constant window of segs
// segments.
func NewFixedCwnd(segs int) *FixedCwnd {
	f := new(FixedCwnd)
	f.Init(segs)
	return f
}

// Init (re)starts f in place as NewFixedCwnd(segs)'s controller.
func (f *FixedCwnd) Init(segs int) { *f = FixedCwnd{w: float64(segs) * mssF} }

// OnAck implements Congestion.
func (f *FixedCwnd) OnAck(int, clock.Time, clock.Time) {}

// OnLoss implements Congestion.
func (f *FixedCwnd) OnLoss(clock.Time) {}

// OnTimeout implements Congestion.
func (f *FixedCwnd) OnTimeout(clock.Time) {}

// CwndBytes implements Congestion.
func (f *FixedCwnd) CwndBytes() float64 { return f.w }

// PacingRate implements Congestion.
func (f *FixedCwnd) PacingRate() float64 { return 0 }

// EndhostCCs names the endhost controllers NewEndhostCC builds.
var EndhostCCs = []string{"cubic", "reno", "bbr"}

// NewEndhostCC builds an endhost controller by name, one of EndhostCCs;
// "" is Cubic, the paper's default. Unknown names panic.
func NewEndhostCC(name string) Congestion {
	switch name {
	case "", "cubic":
		return NewCubic()
	case "reno":
		return NewReno()
	case "bbr":
		return NewBBR()
	default:
		panic("tcp: unknown congestion control " + name)
	}
}
