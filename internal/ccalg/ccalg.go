// Package ccalg implements the congestion-control algorithms Bundler's
// inner loop runs at the sendbox (§4.3, §6.1 of the paper): Copa, Nimbus
// BasicDelay, and a rate-based BBR, plus the Nimbus machinery from §5.1 —
// the asymmetric rate pulser, the spectral elasticity detector for
// buffer-filling cross traffic, and the PI controller that holds a small
// sendbox queue while "letting traffic pass".
//
// All rates are bits/second; all algorithms consume epoch Measurements
// produced by the sendbox measurement module and are polled for a rate on
// the 10 ms CCP control cadence.
package ccalg

import (
	"math"

	"bundler/internal/clock"
	"bundler/internal/pkt"
)

// Measurement is one windowed congestion sample: the sendbox averages
// epoch measurements over a sliding window of about one RTT (§4.5).
type Measurement struct {
	RTT      clock.Time // windowed RTT
	MinRTT   clock.Time // minimum RTT observed for the bundle
	SendRate float64    // bits/s measured across send epochs
	RecvRate float64    // bits/s measured across congestion-ACK arrivals
	Mu       float64    // bottleneck capacity estimate (windowed max recv rate)
	// LatestRTT is the most recent single-epoch RTT sample (0 if unset).
	// Algorithms that maintain their own filters (Copa's standing-RTT
	// window) consume this: filtering an already window-averaged RTT
	// doubles the smoothing lag.
	LatestRTT clock.Time
}

// Alg computes the bundle's base sending rate from measurements.
type Alg interface {
	// Name identifies the algorithm in reports.
	Name() string
	// OnMeasurement feeds one new windowed measurement.
	OnMeasurement(m Measurement, now clock.Time)
	// Rate returns the base sending rate in bits/s.
	Rate(now clock.Time) float64
}

// minCwndPkts floors internal windows so algorithms can always probe.
const minCwndPkts = 4

// Copa implements Copa (Arun & Balakrishnan, NSDI 2018) adapted to
// aggregate, epoch-measurement-driven operation. The target rate is
// 1/(δ·dq) packets/s where dq is the standing queueing delay; the window
// moves toward the target with a velocity that doubles while the direction
// is stable, yielding Copa's characteristic small standing queue.
type Copa struct {
	delta float64
	cwnd  float64 // packets
	vel   float64
	// Velocity doubles at most once per RTT while direction persists.
	lastVelUpdate clock.Time
	lastDir       float64

	// Standing RTT: minimum over the most recent half-RTT of samples.
	recent []rttSample

	lastRate float64
	lastTime clock.Time
}

type rttSample struct {
	at  clock.Time
	rtt clock.Time
}

// NewCopa returns a Copa controller with the default δ = 0.5.
func NewCopa() *Copa {
	c := new(Copa)
	c.Init()
	return c
}

// Init sets c up in place as NewCopa's controller, for an owner that
// holds its Copa by value.
func (c *Copa) Init() {
	*c = Copa{delta: 0.5, cwnd: 2 * minCwndPkts, vel: 1, lastDir: 1}
}

// Name implements Alg.
func (c *Copa) Name() string { return "copa" }

// OnMeasurement implements Alg.
func (c *Copa) OnMeasurement(m Measurement, now clock.Time) {
	if m.RTT <= 0 || m.MinRTT <= 0 {
		return
	}
	sample := m.LatestRTT
	if sample <= 0 {
		sample = m.RTT
	}
	// Maintain the standing-RTT window (half an RTT of history), moving
	// the kept samples down in place so the window keeps its storage.
	c.recent = append(c.recent, rttSample{now, sample})
	cutoff := now - m.RTT/2
	old := 0
	for old < len(c.recent)-1 && c.recent[old].at < cutoff {
		old++
	}
	c.recent = c.recent[:copy(c.recent, c.recent[old:])]
	standing := c.recent[0].rtt
	for _, s := range c.recent[1:] {
		if s.rtt < standing {
			standing = s.rtt
		}
	}

	dq := (standing - m.MinRTT).Seconds()
	curRate := c.cwnd / standing.Seconds() // packets/s
	var dir float64 = 1
	if dq > 0 {
		target := 1 / (c.delta * dq)
		switch {
		case curRate > 1.05*target:
			dir = -1
		case curRate < 0.95*target:
			dir = 1
		default:
			// Dead band: aggregate epoch measurements put the equilibrium
			// standing queue (sub-millisecond) inside the noise floor;
			// holding here avoids direction chatter.
			c.vel = 1
			c.lastDir = 0
			return
		}
	}
	// Velocity: double every two RTTs while the direction persists; reset
	// on reversal. The feedback path (epoch measurement + 1 RTT of
	// window smoothing) is laggier than per-ACK Copa, so doubling is
	// slowed and capped harder to avoid bang-bang oscillation.
	if dir != c.lastDir {
		c.vel = 1
		c.lastDir = dir
		c.lastVelUpdate = now
	} else if now-c.lastVelUpdate >= 2*standing {
		c.vel *= 2
		if lim := c.cwnd / 4; c.vel > lim && lim >= 1 {
			c.vel = lim
		}
		c.lastVelUpdate = now
	}

	dt := (now - c.lastTime).Seconds()
	if c.lastTime == 0 || dt <= 0 || dt > 1 {
		dt = standing.Seconds()
	}
	c.lastTime = now
	// Copa moves v/δ packets per RTT.
	c.cwnd += dir * (c.vel / c.delta) * (dt / standing.Seconds())
	if c.cwnd < minCwndPkts {
		c.cwnd = minCwndPkts
	}
	// At aggregate rates, Copa's equilibrium standing queue
	// (1/(δ·rate) seconds) is below both the queue's own packet
	// granularity and the epoch measurement resolution, so the window
	// rule alone oscillates around queue-empty and parks a few percent
	// under capacity. When the queue measures empty and the window sits
	// below the measured bandwidth-delay product, snap up to it — the
	// δ-rule still trims any overshoot the moment a standing queue
	// appears.
	if m.Mu > 0 {
		bdp := m.Mu / 8 / float64(pkt.MTU) * standing.Seconds()
		if dq < 0.0005 && c.cwnd < bdp && bdp >= minCwndPkts {
			c.cwnd = bdp
		}
		// Cap at 2.5 BDP: aggregate operation can leave the standing-RTT
		// estimate stale across queue drains, and an uncapped window then
		// converts into an enormous instantaneous rate.
		if maxW := 2.5 * bdp; maxW >= minCwndPkts && c.cwnd > maxW {
			c.cwnd = maxW
		}
	}
	c.lastRate = c.cwnd * pkt.MTU * 8 / standing.Seconds()
	// Never fall far below the rate the network is demonstrably
	// delivering: draining a self-inflicted queue needs only a modest
	// deficit, while collapsing below the achieved rate during a foreign
	// queue burst surrenders the bundle's share for nothing.
	if floor := 0.8 * m.RecvRate; c.lastRate < floor && floor > 0 {
		c.lastRate = floor
		c.cwnd = floor / (pkt.MTU * 8) * standing.Seconds()
		if c.cwnd < minCwndPkts {
			c.cwnd = minCwndPkts
		}
	}
}

// Rate implements Alg.
func (c *Copa) Rate(clock.Time) float64 {
	if c.lastRate == 0 {
		return float64(2*minCwndPkts) * pkt.MTU * 8 / 0.1
	}
	return c.lastRate
}

// BasicDelay implements the Nimbus paper's basic delay-control rule: send
// at the estimated available capacity (total minus cross traffic),
// modulated to hold queueing delay at a small target.
type BasicDelay struct {
	rate float64
}

const (
	// queueTargetFrac expresses BasicDelay's queueing-delay target as a
	// fraction of the minimum RTT (Nimbus holds a small standing queue;
	// 1/8 works well across the evaluation's RTT range).
	queueTargetFrac = 0.125
	// basicDelayGain scales BasicDelay's corrective term.
	basicDelayGain = 0.8
)

// NewBasicDelay returns the controller the evaluation runs.
func NewBasicDelay() *BasicDelay { return &BasicDelay{} }

// Name implements Alg.
func (b *BasicDelay) Name() string { return "basicdelay" }

// OnMeasurement implements Alg.
func (b *BasicDelay) OnMeasurement(m Measurement, now clock.Time) {
	if m.MinRTT <= 0 || m.Mu <= 0 {
		return
	}
	xc := CrossTrafficRate(m)
	avail := m.Mu - xc
	if avail < 0.05*m.Mu {
		avail = 0.05 * m.Mu
	}
	dq := (m.RTT - m.MinRTT).Seconds()
	dt := queueTargetFrac * m.MinRTT.Seconds()
	if dt <= 0 {
		dt = 0.005
	}
	// The corrective multiplier is clamped: a deep queue spike (often
	// caused by cross traffic, already subtracted via avail) must slow us
	// down, not starve the bundle until someone else's queue drains.
	mult := 1 + basicDelayGain*(dt-dq)/dt
	if mult < 0.3 {
		mult = 0.3
	}
	// Probing above the available rate is bounded: avail already sits at
	// (or above) the bundle's fair share, and a large overshoot converts
	// straight into a bottleneck queue spike.
	if mult > 1.2 {
		mult = 1.2
	}
	r := avail * mult
	if dq <= dt {
		// Below the queue target there is no congestion evidence at all:
		// pace at capacity rather than at the (noisy) availability
		// estimate — epochs straddling busy and idle periods can read
		// spare capacity as cross traffic and talk the rate down.
		if probe := 1.02 * m.Mu; r < probe {
			r = probe
		}
	}
	lo, hi := 0.05*m.Mu, 2*m.Mu
	if r < lo {
		r = lo
	}
	if r > hi {
		r = hi
	}
	b.rate = r
}

// Rate implements Alg.
func (b *BasicDelay) Rate(clock.Time) float64 {
	if b.rate == 0 {
		return 1e6
	}
	return b.rate
}

// BBRBundle is a rate-based BBR for the bundle: pace at a gain cycle
// around the windowed-max receive rate. As §7.4 shows, its 1.25× probing
// phases keep a standing in-network queue, which is why it underperforms
// the delay controllers at the sendbox.
type BBRBundle struct {
	mu         float64 // windowed max recv rate
	muAt       clock.Time
	minRTT     clock.Time
	cycleIdx   int
	cycleStart clock.Time
	started    bool
	startup    bool
	lastMu     float64
	plateau    int
}

var bundleCycleGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBRBundle returns the controller.
func NewBBRBundle() *BBRBundle { return &BBRBundle{startup: true} }

// Name implements Alg.
func (b *BBRBundle) Name() string { return "bbr" }

// OnMeasurement implements Alg.
func (b *BBRBundle) OnMeasurement(m Measurement, now clock.Time) {
	if m.RecvRate > b.mu || now-b.muAt > 10*clock.Second {
		b.mu = m.RecvRate
		b.muAt = now
	}
	if m.MinRTT > 0 {
		b.minRTT = m.MinRTT
	}
	b.started = true
	if b.startup {
		if b.mu > b.lastMu*1.25 {
			b.lastMu = b.mu
			b.plateau = 0
		} else {
			b.plateau++
			if b.plateau >= 3 {
				b.startup = false
				b.cycleStart = now
			}
		}
	} else if rt := b.rtprop(); now-b.cycleStart >= rt {
		b.cycleIdx = (b.cycleIdx + 1) % len(bundleCycleGains)
		b.cycleStart = now
	}
}

func (b *BBRBundle) rtprop() clock.Time {
	if b.minRTT == 0 {
		return 100 * clock.Millisecond
	}
	return b.minRTT
}

// Rate implements Alg.
func (b *BBRBundle) Rate(clock.Time) float64 {
	if !b.started || b.mu == 0 {
		return 1e6
	}
	if b.startup {
		return 2.885 * b.mu
	}
	return bundleCycleGains[b.cycleIdx] * b.mu
}

// CrossTrafficRate estimates the competing traffic's rate at the shared
// bottleneck (Nimbus eq. 1): x = μ·S/R − S. A receive rate at capacity
// with S below it implies the gap is someone else's traffic.
//
// The formula is only meaningful while the bottleneck is busy: on an idle
// link R equals S and the expression degenerates to μ − S, which is spare
// capacity, not cross traffic. Measurements that include RTT information
// therefore gate on observed queueing delay.
func CrossTrafficRate(m Measurement) float64 {
	if m.RecvRate <= 0 || m.Mu <= 0 {
		return 0
	}
	if m.RTT > 0 && m.MinRTT > 0 {
		if dq := m.RTT - m.MinRTT; dq < queueBusyThreshold(m.MinRTT) {
			return 0
		}
	}
	x := m.Mu*m.SendRate/m.RecvRate - m.SendRate
	if x < 0 {
		return 0
	}
	if x > m.Mu {
		return m.Mu
	}
	return x
}

// queueBusyThreshold is the queueing delay below which the bottleneck is
// treated as effectively idle for cross-traffic estimation.
func queueBusyThreshold(minRTT clock.Time) clock.Time {
	th := minRTT / 20
	if th < 2*clock.Millisecond {
		th = 2 * clock.Millisecond
	}
	return th
}

// Names names the inner-loop algorithms New builds, in the order the
// evaluation compares them (Figure 14).
var Names = []string{"copa", "basicdelay", "bbr"}

// New builds an inner-loop algorithm by name, one of Names; "" is Copa,
// the evaluation's default. Unknown names panic.
func New(name string) Alg { return NewIn(name, nil) }

// NewIn is New that builds Copa in copa, when copa is not nil: an owner
// that holds a Copa by value (the Sendbox) allocates no controller for
// the default algorithm.
func NewIn(name string, copa *Copa) Alg {
	switch name {
	case "", "copa":
		if copa == nil {
			copa = new(Copa)
		}
		copa.Init()
		return copa
	case "basicdelay":
		return NewBasicDelay()
	case "bbr":
		return NewBBRBundle()
	default:
		panic("ccalg: unknown algorithm " + name)
	}
}

// Pulser superimposes the Nimbus asymmetric sinusoid on a base rate: a
// half-sine up-pulse of amplitude A over the first quarter period,
// balanced by a shallow A/3 down-pulse over the remaining three quarters,
// so the mean added rate is zero. The paper uses T = 0.2 s and
// A = μ/4 (§5.1).
type Pulser struct{}

const (
	// pulsePeriod is the pulse period T.
	pulsePeriod = 200 * clock.Millisecond
	// pulseAmplitudeFrac is A as a fraction of the capacity estimate μ.
	pulseAmplitudeFrac = 0.25
)

// NewPulser returns the paper's pulser.
func NewPulser() *Pulser { return &Pulser{} }

// Offset returns the rate offset at time now for capacity estimate mu.
// The amplitude is μ/4 regardless of the base rate: detection matters most
// precisely when the delay controller has collapsed against a
// buffer-filler, and an attenuated pulse would be invisible in the cross
// traffic's response. The caller floors the summed rate so the down-pulse
// cannot stall the pacer.
func (p *Pulser) Offset(now clock.Time, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	amp := pulseAmplitudeFrac * mu
	t := float64(now%pulsePeriod) / float64(pulsePeriod) // phase in [0,1)
	if t < 0.25 {
		return amp * math.Sin(math.Pi*t/0.25)
	}
	return -(amp / 3) * math.Sin(math.Pi*(t-0.25)/0.75)
}

// Frequency returns the pulse frequency in Hz.
func (p *Pulser) Frequency() float64 { return 1 / pulsePeriod.Seconds() }

// Detector decides whether buffer-filling (elastic) cross traffic shares
// the bottleneck, by looking for the pulser's frequency in the
// cross-traffic rate estimate: elastic traffic reacts to our pulses at
// f_p, inelastic traffic does not (§5.1, after Nimbus). It keeps the last
// DetectorWindow samples and reads the power of six DFT bins of them.
type Detector struct {
	pulseHz  float64
	sampleHz float64
	buf      []float64
	next     int
	filled   bool
}

// DetectorWindow is the number of samples the detector classifies: at the
// 100 Hz control tick, 5.12 s of cross-traffic estimates.
const DetectorWindow = 512

// NewDetector builds a detector for a pulser at pulseHz sampled at
// sampleHz (the 10 ms control tick → 100 Hz).
func NewDetector(pulseHz, sampleHz float64) *Detector {
	return &Detector{pulseHz: pulseHz, sampleHz: sampleHz}
}

// AddSample appends one cross-traffic rate estimate (bits/s), sampled at
// the detector's sample rate.
func (d *Detector) AddSample(z float64) {
	// The buffer grows toward the full window instead of being sized for
	// it up front: it is only ever read once filled, and a window takes
	// DetectorWindow/sampleHz (≈ 5 s at the 100 Hz control tick) to
	// accumulate — a short-lived bundle, e.g. a mesh pair torn down when
	// its requests complete, never pays for samples it never records.
	if !d.filled && len(d.buf) < DetectorWindow {
		if len(d.buf) == cap(d.buf) {
			ncap := 4 * cap(d.buf)
			if ncap == 0 {
				ncap = 32
			}
			if ncap > DetectorWindow {
				ncap = DetectorWindow
			}
			nb := make([]float64, len(d.buf), ncap)
			copy(nb, d.buf)
			d.buf = nb
		}
		d.buf = append(d.buf, z)
		if len(d.buf) == DetectorWindow {
			d.filled = true
		}
		return
	}
	d.buf[d.next] = z
	d.next++
	if d.next == len(d.buf) {
		d.next = 0
	}
}

// Ready reports whether a full window has accumulated.
func (d *Detector) Ready() bool { return d.filled }

// WindowMean reports the mean cross-traffic estimate over the current
// window (0 until the window fills).
func (d *Detector) WindowMean() float64 {
	if !d.filled {
		return 0
	}
	mean := 0.0
	for _, v := range d.buf {
		mean += v
	}
	return mean / float64(len(d.buf))
}

// elasticThreshold is the ratio of pulse-bin power to comparison-band
// power above which ElasticGated calls the cross traffic elastic.
const elasticThreshold = 3.0

// ElasticGated classifies the current window by the Nimbus criterion: the
// power near the pulse frequency must dominate the power at half the pulse
// frequency (elastic traffic reacts at f_p; the half-frequency band
// measures broadband churn). The gate requires the cross traffic to
// average minFrac of capacity over the whole window — instantaneous
// estimates spike whenever the bundle's own rate transients drain the
// queue, and must not self-trigger detection. Callers already in
// pass-through mode use a lower gate: competing fairly suppresses the
// cross traffic's share, and a symmetric gate would oscillate between
// modes.
func (d *Detector) ElasticGated(mu, minFrac float64) bool {
	if !d.filled || mu <= 0 || d.WindowMean() < minFrac*mu {
		return false
	}
	var x [DetectorWindow]float64
	d.weighted(&x)
	pulsePower := bandMax(&x, binOf(d.pulseHz, d.sampleHz))
	refPower := bandMax(&x, binOf(d.pulseHz/2, d.sampleHz))
	if refPower <= 0 {
		return pulsePower > 0
	}
	return pulsePower/refPower > elasticThreshold
}

// weighted fills x with the window in chronological order, less its mean
// (so the DC bin does not leak into its neighbours) and times the Hann
// weights.
func (d *Detector) weighted(x *[DetectorWindow]float64) {
	n := copy(x[:], d.buf[d.next:])
	copy(x[n:], d.buf[:d.next])
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= DetectorWindow
	for i, v := range x {
		x[i] = (v - mean) * hann[i]
	}
}

// hann holds the Hann weights of a DetectorWindow-sample window.
var hann = func() (w [DetectorWindow]float64) {
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(DetectorWindow-1)))
	}
	return w
}()

// binOf returns the DFT bin of a DetectorWindow-sample window closest to
// freq, for samples taken at sampleHz.
func binOf(freq, sampleHz float64) int {
	return min(max(int(math.Round(freq*DetectorWindow/sampleHz)), 0), DetectorWindow/2)
}

// bandMax returns the largest power among bins center−1 … center+1 of x,
// skipping bins outside 0 … DetectorWindow/2.
func bandMax(x *[DetectorWindow]float64, center int) float64 {
	best := 0.0
	for k := max(center-1, 0); k <= min(center+1, DetectorWindow/2); k++ {
		best = max(best, binPower(x, k))
	}
	return best
}

// binPower returns |X_k|², the power of DFT bin k of x, by Goertzel's
// recurrence: one pass over x per bin, so reading six bins costs less
// than a full transform.
func binPower(x *[DetectorWindow]float64, k int) float64 {
	c := 2 * math.Cos(2*math.Pi*float64(k)/DetectorWindow)
	var s1, s2 float64
	for _, v := range x {
		s1, s2 = v+c*s1-s2, s1
	}
	return s1*s1 + s2*s2 - c*s1*s2
}

// PIController is the §5.1 controller that holds the sendbox queue at the
// target while traffic passes: ṙ = α(q − q_T) + β·q̇ with α = β = 10.
// Gains are normalized: one target's worth of queue error moves the rate
// by α·μ per second.
type PIController struct {
	Alpha, Beta float64
	// Target is q_T, expressed as queueing delay.
	Target clock.Time

	rate     float64
	lastQ    clock.Time
	lastTime clock.Time
}

// NewPIController returns the paper's configuration: α = β = 10 and a
// 10 ms target (8 ms for the up-pulse area plus 2 ms cushion).
func NewPIController() *PIController {
	return &PIController{Alpha: 10, Beta: 10, Target: 10 * clock.Millisecond}
}

// Reset initializes the controller when pass-through mode engages,
// starting from the given rate.
func (pi *PIController) Reset(rate float64, now clock.Time) {
	pi.rate = rate
	pi.lastQ = 0
	pi.lastTime = now
}

// Update advances the controller: q is the current sendbox queueing delay
// and mu the capacity estimate used for normalization. It returns the new
// base rate.
func (pi *PIController) Update(q clock.Time, mu float64, now clock.Time) float64 {
	dt := (now - pi.lastTime).Seconds()
	if dt <= 0 {
		return pi.rate
	}
	qErr := (q - pi.Target).Seconds() / pi.Target.Seconds()
	qDot := (q - pi.lastQ).Seconds() / dt / pi.Target.Seconds()
	pi.lastQ = q
	pi.lastTime = now
	pi.rate += (pi.Alpha*qErr + pi.Beta*qDot) * mu * dt
	if pi.rate < 0.01*mu {
		pi.rate = 0.01 * mu
	}
	if pi.rate > 4*mu {
		pi.rate = 4 * mu
	}
	return pi.rate
}

// Rate returns the controller's current rate.
func (pi *PIController) Rate() float64 { return pi.rate }
