package ccalg

import (
	"math"
	"math/rand"
	"testing"

	"bundler/internal/clock"
)

func meas(rtt, minRTT clock.Time, send, recv, mu float64) Measurement {
	return Measurement{RTT: rtt, MinRTT: minRTT, SendRate: send, RecvRate: recv, Mu: mu}
}

// driveToEquilibrium runs a crude fluid model of a single bottleneck: the
// algorithm's rate fills a queue drained at capacity mu, and the measured
// RTT reflects the resulting queueing delay. It returns the final rate and
// queueing delay.
func driveToEquilibrium(t *testing.T, alg Alg, mu float64, minRTT clock.Time, seconds float64) (rate float64, qdelay clock.Time) {
	t.Helper()
	var qBits float64
	now := clock.Time(0)
	const tick = 10 * clock.Millisecond
	rate = mu / 2
	for now.Seconds() < seconds {
		now += tick
		dt := tick.Seconds()
		qBits += (rate - mu) * dt
		if qBits < 0 {
			qBits = 0
		}
		qd := clock.Time(qBits / mu * float64(clock.Second))
		recv := mu
		if rate < mu && qBits == 0 {
			recv = rate
		}
		alg.OnMeasurement(meas(minRTT+qd, minRTT, rate, recv, mu), now)
		rate = alg.Rate(now)
	}
	return rate, clock.Time(qBits / mu * float64(clock.Second))
}

func TestCopaConvergesToCapacityWithSmallQueue(t *testing.T) {
	rate, qd := driveToEquilibrium(t, NewCopa(), 96e6, 50*clock.Millisecond, 30)
	if rate < 0.85*96e6 || rate > 1.3*96e6 {
		t.Fatalf("copa rate %.1f Mbit/s, want ≈ 96", rate/1e6)
	}
	if qd > 15*clock.Millisecond {
		t.Fatalf("copa standing queue %v, want small (<15ms)", qd)
	}
}

func TestBasicDelayConvergesToCapacityWithSmallQueue(t *testing.T) {
	rate, qd := driveToEquilibrium(t, NewBasicDelay(), 48e6, 40*clock.Millisecond, 30)
	if rate < 0.85*48e6 || rate > 1.3*48e6 {
		t.Fatalf("basicdelay rate %.1f Mbit/s, want ≈ 48", rate/1e6)
	}
	if qd > 15*clock.Millisecond {
		t.Fatalf("basicdelay standing queue %v, want <15ms", qd)
	}
}

func TestBBRBundleMaintainsStandingQueue(t *testing.T) {
	rate, _ := driveToEquilibrium(t, NewBBRBundle(), 48e6, 40*clock.Millisecond, 30)
	// BBR paces around capacity; its probing keeps rate ≈ mu (cycle mean
	// slightly above due to queue it creates).
	if rate < 0.7*48e6 || rate > 1.5*48e6 {
		t.Fatalf("bbr rate %.1f Mbit/s, want ≈ 48", rate/1e6)
	}
}

func TestCopaDrainsQueueWhenAboveTarget(t *testing.T) {
	c := NewCopa()
	now := clock.Time(0)
	// Large persistent queueing delay: Copa must reduce its window.
	for i := 0; i < 200; i++ {
		now += 10 * clock.Millisecond
		c.OnMeasurement(meas(150*clock.Millisecond, 50*clock.Millisecond, 96e6, 96e6, 96e6), now)
	}
	got := c.Rate(now)
	// Copa reduces toward — but not below — 80 % of the receive rate the
	// network is still delivering: that deficit drains a self-inflicted
	// queue without surrendering the bundle's share of a foreign one.
	if got > 0.85*96e6 {
		t.Fatalf("copa rate %.1f Mbit/s under 100ms standing queue, want backoff toward 0.8*R", got/1e6)
	}
	if got < 0.7*96e6 {
		t.Fatalf("copa rate %.1f Mbit/s collapsed below the 0.8*R floor", got/1e6)
	}
}

func TestCrossTrafficRateEstimate(t *testing.T) {
	// We send 40, receive 40, capacity 100 -> cross ≈ 60.
	m := meas(0, 0, 40e6, 40e6, 100e6)
	if got := CrossTrafficRate(m); math.Abs(got-60e6) > 1 {
		t.Fatalf("xc = %.1f, want 60 Mbit/s", got/1e6)
	}
	// Receiving everything at capacity: no cross traffic.
	m = meas(0, 0, 100e6, 100e6, 100e6)
	if got := CrossTrafficRate(m); got != 0 {
		t.Fatalf("xc = %v, want 0", got)
	}
	// Degenerate inputs.
	if CrossTrafficRate(meas(0, 0, 1, 0, 100e6)) != 0 {
		t.Fatal("zero recv rate should yield 0")
	}
}

func TestPulserZeroMean(t *testing.T) {
	p := NewPulser()
	const steps = 20000
	sum := 0.0
	for i := 0; i < steps; i++ {
		now := clock.Time(i) * pulsePeriod / steps
		sum += p.Offset(now, 100e6)
	}
	mean := sum / steps
	if math.Abs(mean) > 0.002*100e6 {
		t.Fatalf("pulse mean %.3f Mbit/s, want ≈ 0", mean/1e6)
	}
}

func TestPulserUpPulseAreaMatchesPaper(t *testing.T) {
	// Area under the up-pulse should be A·T/(2π)·π = ... the paper's
	// formula gives ∫ A·sin(4πt/T) over [0,T/4] = A·T/(2π). Numerically
	// integrate and compare.
	p := NewPulser()
	mu := 96e6
	amp := pulseAmplitudeFrac * mu
	const steps = 100000
	dt := pulsePeriod.Seconds() / steps
	area := 0.0
	for i := 0; i < steps; i++ {
		now := clock.Time(i) * pulsePeriod / steps
		if off := p.Offset(now, mu); off > 0 {
			area += off * dt
		}
	}
	want := amp * pulsePeriod.Seconds() / (2 * math.Pi) * 2 // ∫sin over half period = 2/π · A · L
	// ∫_0^{T/4} A sin(π t/(T/4)) dt = 2A(T/4)/π = A·T/(2π) · ... just
	// compare against the closed form directly:
	want = 2 * amp * (pulsePeriod.Seconds() / 4) / math.Pi
	if math.Abs(area-want)/want > 0.01 {
		t.Fatalf("up-pulse area %.4f, want %.4f", area, want)
	}
}

func TestPulserFrequency(t *testing.T) {
	p := NewPulser()
	if got := p.Frequency(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("pulse frequency %.2f Hz, want 5", got)
	}
}

func TestDetectorFlagsElasticResponse(t *testing.T) {
	// Elastic cross traffic mirrors our pulses (opposite sign) at f_p.
	d := NewDetector(5, 100)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < DetectorWindow; i++ {
		tt := float64(i) / 100
		z := 50e6 - 10e6*math.Sin(2*math.Pi*5*tt) + 1e6*r.NormFloat64()
		d.AddSample(z)
	}
	if !d.Ready() {
		t.Fatal("detector not ready after full window")
	}
	if !d.ElasticGated(100e6, 0.2) {
		t.Fatal("elastic cross traffic not detected")
	}
}

func TestDetectorIgnoresInelasticCross(t *testing.T) {
	// Constant-rate cross traffic shows no 5 Hz component.
	d := NewDetector(5, 100)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < DetectorWindow; i++ {
		z := 50e6 + 2e6*r.NormFloat64()
		d.AddSample(z)
	}
	if d.ElasticGated(100e6, 0.2) {
		t.Fatal("inelastic cross traffic misclassified as elastic")
	}
}

func TestDetectorGatesOnCrossMagnitude(t *testing.T) {
	d := NewDetector(5, 100)
	for i := 0; i < DetectorWindow; i++ {
		tt := float64(i) / 100
		d.AddSample(1e6 * math.Sin(2*math.Pi*5*tt))
	}
	if d.ElasticGated(100e6, 0.2) {
		t.Fatal("negligible cross traffic (1% of mu) must not classify as elastic")
	}
}

func TestDetectorNotReadyBeforeFullWindow(t *testing.T) {
	d := NewDetector(5, 100)
	for i := 0; i < DetectorWindow-1; i++ {
		d.AddSample(1)
	}
	if d.Ready() {
		t.Fatal("ready before window filled")
	}
	if d.ElasticGated(100e6, 0.2) {
		t.Fatal("classified before window filled")
	}
}

func TestPIControllerReachesQueueTarget(t *testing.T) {
	// Fluid model: arrivals at a fixed aggregate rate; the PI-set rate
	// drains the queue. The queue should settle at the 10 ms target.
	pi := NewPIController()
	mu := 96e6
	arrival := 96e6
	var qBits float64
	now := clock.Time(0)
	pi.Reset(mu, now)
	const tick = 10 * clock.Millisecond
	var lastQ clock.Time
	for i := 0; i < 3000; i++ {
		now += tick
		rate := pi.Rate()
		qBits += (arrival - rate) * tick.Seconds()
		if qBits < 0 {
			qBits = 0
		}
		lastQ = clock.Time(qBits / mu * float64(clock.Second))
		pi.Update(lastQ, mu, now)
	}
	if lastQ < 5*clock.Millisecond || lastQ > 20*clock.Millisecond {
		t.Fatalf("PI settled at queue %v, want ≈ 10ms", lastQ)
	}
}

func TestPIControllerRateBounds(t *testing.T) {
	pi := NewPIController()
	pi.Reset(1e6, 0)
	// Huge queue for a long time must not blow past 4·mu.
	for i := 1; i <= 1000; i++ {
		pi.Update(10*clock.Second, 10e6, clock.Time(i)*10*clock.Millisecond)
	}
	if pi.Rate() > 40e6+1 {
		t.Fatalf("rate %v exceeded 4·mu bound", pi.Rate())
	}
	// Empty queue forever must not go below 1% mu.
	for i := 1001; i <= 3000; i++ {
		pi.Update(0, 10e6, clock.Time(i)*10*clock.Millisecond)
	}
	if pi.Rate() < 0.1e6-1 {
		t.Fatalf("rate %v fell below 1%% mu floor", pi.Rate())
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names {
		if got := New(name).Name(); got != name {
			t.Fatalf("New(%q).Name() = %q", name, got)
		}
	}
	if got := New("").Name(); got != "copa" {
		t.Fatalf(`New("").Name() = %q, want the copa default`, got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown name did not panic")
		}
	}()
	New("vegas")
}
