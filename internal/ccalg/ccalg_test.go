package ccalg

import (
	"fmt"
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

// elasticWindow is cross traffic that mirrors our pulses (opposite sign)
// at f_p, as elastic traffic does.
func elasticWindow() []float64 {
	r := rand.New(rand.NewSource(1))
	w := make([]float64, DetectorWindow)
	for i := range w {
		tt := float64(i) / 100
		w[i] = 50e6 - 10e6*math.Sin(2*math.Pi*5*tt) + 1e6*r.NormFloat64()
	}
	return w
}

// inelasticWindow is constant-rate cross traffic: no 5 Hz component.
func inelasticWindow() []float64 {
	r := rand.New(rand.NewSource(2))
	w := make([]float64, DetectorWindow)
	for i := range w {
		w[i] = 50e6 + 2e6*r.NormFloat64()
	}
	return w
}

// faintWindow is a pure 5 Hz response at 1 % of a 100 Mbit/s μ.
func faintWindow() []float64 {
	w := make([]float64, DetectorWindow)
	for i := range w {
		tt := float64(i) / 100
		w[i] = 1e6 * math.Sin(2*math.Pi*5*tt)
	}
	return w
}

// flatWindow is a constant estimate.
func flatWindow() []float64 {
	w := make([]float64, DetectorWindow)
	for i := range w {
		w[i] = 1
	}
	return w
}

func detectorFed(samples []float64) *Detector {
	d := NewDetector(5, 100)
	for _, z := range samples {
		d.AddSample(z)
	}
	return d
}

func TestDetectorFlagsElasticResponse(t *testing.T) {
	d := detectorFed(elasticWindow())
	if !d.Ready() {
		t.Fatal("detector not ready after full window")
	}
	if !d.ElasticGated(100e6, 0.2) {
		t.Fatal("elastic cross traffic not detected")
	}
}

func TestDetectorIgnoresInelasticCross(t *testing.T) {
	if detectorFed(inelasticWindow()).ElasticGated(100e6, 0.2) {
		t.Fatal("inelastic cross traffic misclassified as elastic")
	}
}

func TestDetectorGatesOnCrossMagnitude(t *testing.T) {
	if detectorFed(faintWindow()).ElasticGated(100e6, 0.2) {
		t.Fatal("negligible cross traffic (1% of mu) must not classify as elastic")
	}
}

func TestDetectorNotReadyBeforeFullWindow(t *testing.T) {
	d := detectorFed(flatWindow()[1:])
	if d.Ready() {
		t.Fatal("ready before window filled")
	}
	if d.ElasticGated(100e6, 0.2) {
		t.Fatal("classified before window filled")
	}
}

// naivePower is |X_k|² straight from the DFT's definition.
func naivePower(x *[DetectorWindow]float64, k int) float64 {
	var re, im float64
	for n, v := range x {
		sin, cos := math.Sincos(2 * math.Pi * float64(k*n%DetectorWindow) / DetectorWindow)
		re += v * cos
		im -= v * sin
	}
	return re*re + im*im
}

// TestBinPowerMatchesNaiveDFT checks Goertzel's recurrence against the
// DFT's definition in every bin the detector could read, on the weighted
// windows of the detector tests' signals and of seeded random ones, and
// bandMax where its band is clipped at either end of the spectrum.
func TestBinPowerMatchesNaiveDFT(t *testing.T) {
	signals := map[string][]float64{
		"elastic": elasticWindow(), "inelastic": inelasticWindow(),
		"faint": faintWindow(), "flat": flatWindow(),
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		// Longer than a window, so the ring wraps before it is read.
		w := make([]float64, DetectorWindow+r.Intn(DetectorWindow))
		level, spread := 1e8*r.Float64(), 1e7*r.Float64()
		for j := range w {
			w[j] = level + spread*r.NormFloat64()
		}
		signals[fmt.Sprintf("random%d", i)] = w
	}
	for name, w := range signals {
		var x [DetectorWindow]float64
		detectorFed(w).weighted(&x)
		var naive [DetectorWindow/2 + 1]float64
		peak := 0.0
		for k := range naive {
			naive[k] = naivePower(&x, k)
			peak = max(peak, naive[k])
		}
		// Rounding error in a bin's power scales with the window's
		// amplitude, not the bin's own, so a bin more than 12 orders of
		// magnitude below the window's peak (the faint pure tone's far
		// sidelobes reach 19) is held to 1e-9 of that floor instead.
		agrees := func(got, want float64) bool {
			return math.Abs(got-want) <= 1e-9*max(want, 1e-12*peak)
		}
		for k := range naive {
			if got := binPower(&x, k); !agrees(got, naive[k]) {
				t.Errorf("%s: bin %d power %g, DFT %g", name, k, got, naive[k])
			}
		}
		edges := []struct{ center, lo, hi int }{
			{binOf(0, 100), 0, 1},
			{binOf(60, 100), DetectorWindow/2 - 1, DetectorWindow / 2},
		}
		for _, e := range edges {
			want := max(naive[e.lo], naive[e.hi])
			if got := bandMax(&x, e.center); !agrees(got, want) {
				t.Errorf("%s: band at bin %d = %g, DFT bins %d–%d peak %g", name, e.center, got, e.lo, e.hi, want)
			}
		}
	}
}

// TestElasticGatedAllocFree pins the cost of a vote: the weighted window
// lives on the stack and the six bins are read in place.
func TestElasticGatedAllocFree(t *testing.T) {
	d := detectorFed(elasticWindow())
	if n := testing.AllocsPerRun(100, func() { d.ElasticGated(100e6, 0.2) }); n != 0 {
		t.Errorf("ElasticGated: %.0f allocations per vote, want 0", n)
	}
}

func TestBinPowerOfImpulseIsFlat(t *testing.T) {
	var x [DetectorWindow]float64
	x[0] = 1
	for k := 0; k <= DetectorWindow/2; k++ {
		if p := binPower(&x, k); math.Abs(p-1) > 1e-9 {
			t.Fatalf("bin %d power %v, want 1", k, p)
		}
	}
}

func TestBinPowerSinusoidPeaksAtItsBin(t *testing.T) {
	var x [DetectorWindow]float64
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 16 * float64(i) / DetectorWindow)
	}
	best, bestPower := 0, 0.0
	for k := 1; k < DetectorWindow/2; k++ {
		if p := binPower(&x, k); p > bestPower {
			best, bestPower = k, p
		}
	}
	if best != 16 {
		t.Fatalf("peak at bin %d, want 16", best)
	}
}

// TestBinPowerParseval checks Parseval's theorem over the bins of a real
// window: sum x² == (P_0 + P_{N/2} + 2·sum of the others) / N.
func TestBinPowerParseval(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var x [DetectorWindow]float64
		energyTime := 0.0
		for i := range x {
			x[i] = r.NormFloat64()
			energyTime += x[i] * x[i]
		}
		energyFreq := binPower(&x, 0) + binPower(&x, DetectorWindow/2)
		for k := 1; k < DetectorWindow/2; k++ {
			energyFreq += 2 * binPower(&x, k)
		}
		energyFreq /= DetectorWindow
		if math.Abs(energyTime-energyFreq) > 1e-6*max(1, energyTime) {
			t.Fatalf("seed %d: time energy %v, frequency energy %v", seed, energyTime, energyFreq)
		}
	}
}

func TestWeightedRemovesDC(t *testing.T) {
	w := make([]float64, DetectorWindow)
	for i := range w {
		w[i] = 42 // pure DC
	}
	var x [DetectorWindow]float64
	detectorFed(w).weighted(&x)
	for k := 0; k <= DetectorWindow/2; k++ {
		if p := binPower(&x, k); p > 1e-18 {
			t.Fatalf("bin %d = %g for constant input, want ~0", k, p)
		}
	}
}

func TestBinOfBounds(t *testing.T) {
	if got := binOf(5, 100); got != 26 { // 5*512/100 = 25.6 -> 26
		t.Fatalf("binOf(5, 100) = %d, want 26", got)
	}
	if binOf(-3, 100) != 0 {
		t.Fatal("negative freq not clamped")
	}
	if binOf(1e9, 100) != DetectorWindow/2 {
		t.Fatal("super-Nyquist freq not clamped")
	}
}

// TestBinPowerDetectsPulseFrequency feeds 512 samples at 100 Hz of a 5 Hz
// sinusoid (the Nimbus pulse frequency) buried in noise: after the
// detector's weighting, the 5 Hz bin region must dominate every other bin.
func TestBinPowerDetectsPulseFrequency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := make([]float64, DetectorWindow)
	for i := range w {
		tt := float64(i) / 100
		w[i] = 3*math.Sin(2*math.Pi*5*tt) + 0.3*r.NormFloat64() + 10
	}
	var x [DetectorWindow]float64
	detectorFed(w).weighted(&x)
	peak := binOf(5, 100)
	peakPower := binPower(&x, peak)
	for k := 1; k <= DetectorWindow/2; k++ {
		if k >= peak-1 && k <= peak+1 {
			continue
		}
		if p := binPower(&x, k); p > peakPower {
			t.Fatalf("bin %d power %.3f exceeds pulse bin %d power %.3f", k, p, peak, peakPower)
		}
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
