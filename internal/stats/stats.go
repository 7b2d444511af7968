// Package stats provides the measurement plumbing the evaluation harness
// uses: exact or sketched quantiles and summaries (the estimate errors of
// the paper's Figs 5–6 among them), virtual-time series (Figs 2, 7, 10),
// and the windowed maximum filter the control loops estimate capacity with.
// Values are unitless float64s — the producer picks the unit (slowdowns,
// milliseconds, Mbit/s) — and time series are indexed by sim.Time.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"bundler/internal/sim"
)

// Sample accumulates float64 observations for quantile queries. The
// default mode stores every observation exactly; UseSketch switches the
// sample to a bounded log-histogram sketch (see the accuracy contract in
// sketch.go) for mesh-scale runs where per-flow buffers are
// memory-impossible. Exact mode's behavior — and therefore golden
// output — is byte-identical to the pre-sketch implementation.
type Sample struct {
	vals   []float64
	sorted bool
	sk     *Sketch // non-nil → sketch mode
}

// UseSketch switches the sample to sketch mode, converting any
// observations already recorded. Quantiles become ≤1 %-relative-error
// approximations (N/Mean/Min/Max stay exact) and memory becomes
// independent of the observation count. There is no way back to exact
// mode: the raw observations are discarded.
func (s *Sample) UseSketch() {
	if s.sk != nil {
		return
	}
	s.sk = NewSketch()
	for _, v := range s.vals {
		s.sk.Add(v)
	}
	s.vals = nil
	s.sorted = false
}

// Sketched reports whether the sample is in sketch mode.
func (s *Sample) Sketched() bool { return s.sk != nil }

// Add appends an observation.
func (s *Sample) Add(v float64) {
	if s.sk != nil {
		s.sk.Add(v)
		return
	}
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Reserve grows the sample's buffer to hold at least n observations, so
// recording hot paths (one Add per flow or per packet) never reallocate
// mid-run. It never shrinks, and is a no-op in sketch mode (whose
// footprint does not scale with n). Each call that grows the buffer is
// one allocation, which for a small n costs about what the appends it
// saves would: an owner of many small samples reserves them with
// ReserveIn instead.
func (s *Sample) Reserve(n int) { s.ReserveIn(nil, n) }

// ReserveIn is Reserve with the room carved from a, so many small
// samples share one allocation per chunk of a. A nil a allocates, as
// Reserve does. The carved room is the sample's alone: an Add past it
// moves the sample to a buffer of its own.
func (s *Sample) ReserveIn(a *sim.Arena[float64], n int) {
	if s.sk != nil || cap(s.vals) >= n {
		return
	}
	var vals []float64
	if a != nil {
		vals = a.Take(n)[:len(s.vals)]
	} else {
		vals = make([]float64, len(s.vals), n)
	}
	copy(vals, s.vals)
	s.vals = vals
}

// AddSample folds every observation of o into s — the aggregation step
// the mesh experiments use to report one row over many per-pair
// recorders. Two exact samples concatenate; two sketches merge in
// bucket space (bounded, exact over sketches). Mixed modes make s a
// sketch: folding a sketch into an exact sample converts s first, since
// o's raw observations no longer exist. o is left untouched.
func (s *Sample) AddSample(o *Sample) {
	switch {
	case s.sk == nil && o.sk == nil:
		s.vals = append(s.vals, o.vals...)
		s.sorted = false
	case s.sk != nil && o.sk != nil:
		s.sk.Merge(o.sk)
	case s.sk != nil:
		for _, v := range o.vals {
			s.sk.Add(v)
		}
	default:
		s.UseSketch()
		s.sk.Merge(o.sk)
	}
}

// Reset discards all observations but keeps the buffer (or sketch mode
// and bucket map), so a Sample can be reused across runs without
// reallocating.
func (s *Sample) Reset() {
	if s.sk != nil {
		s.sk.Reset()
		return
	}
	s.vals = s.vals[:0]
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int {
	if s.sk != nil {
		return s.sk.N()
	}
	return len(s.vals)
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// (within 1 % relative error in sketch mode). It returns NaN for an
// empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if s.sk != nil {
		return s.sk.Quantile(q)
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	pos := q * float64(len(s.vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.vals) {
		return s.vals[lo]
	}
	return s.vals[lo]*(1-frac) + s.vals[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean (exact in both modes), or NaN when
// empty.
func (s *Sample) Mean() float64 {
	if s.sk != nil {
		return s.sk.Mean()
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// FractionWithin reports the fraction of observations v with |v| ≤ bound
// (used for the paper's "80 % of estimates within X" claims). Sketch
// mode resolves the bound at bucket granularity.
func (s *Sample) FractionWithin(bound float64) float64 {
	if s.sk != nil {
		return s.sk.FractionWithin(bound)
	}
	if len(s.vals) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range s.vals {
		if math.Abs(v) <= bound {
			n++
		}
	}
	return float64(n) / float64(len(s.vals))
}

// Summary is a fixed set of quantiles for reporting.
type Summary struct {
	N                       int
	Mean                    float64
	P10, P25, P50, P75, P90 float64
	P99                     float64
	Min, Max                float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		P10:  s.Quantile(0.10),
		P25:  s.Quantile(0.25),
		P50:  s.Quantile(0.50),
		P75:  s.Quantile(0.75),
		P90:  s.Quantile(0.90),
		P99:  s.Quantile(0.99),
		Min:  s.Min(),
		Max:  s.Max(),
	}
}

// MarshalJSON emits non-finite quantiles as null (encoding/json rejects
// NaN/Inf outright): an empty sample's Summary is all-NaN, and one such
// summary must not make a whole results file unserializable. Finite
// summaries take the standard encoding path, byte-identical to a plain
// struct marshal.
func (s Summary) MarshalJSON() ([]byte, error) {
	finite := true
	for _, v := range [...]float64{s.Mean, s.P10, s.P25, s.P50, s.P75, s.P90, s.P99, s.Min, s.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			break
		}
	}
	if finite {
		type noMethods Summary // drop MarshalJSON to avoid recursion
		return json.Marshal(noMethods(s))
	}
	opt := func(v float64) *float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	return json.Marshal(struct {
		N                       int
		Mean                    *float64
		P10, P25, P50, P75, P90 *float64
		P99                     *float64
		Min, Max                *float64
	}{s.N, opt(s.Mean), opt(s.P10), opt(s.P25), opt(s.P50), opt(s.P75), opt(s.P90), opt(s.P99), opt(s.Min), opt(s.Max)})
}

// UnmarshalJSON inverts the NaN-as-null encoding: null quantiles decode
// back to NaN, so a Summary that round-trips through a run-store
// manifest re-marshals byte-identically (a plain decode would turn the
// nulls into zeroes and corrupt resumed sweep output).
func (s *Summary) UnmarshalJSON(data []byte) error {
	var raw struct {
		N                       int
		Mean                    *float64
		P10, P25, P50, P75, P90 *float64
		P99                     *float64
		Min, Max                *float64
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	val := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	*s = Summary{N: raw.N, Mean: val(raw.Mean),
		P10: val(raw.P10), P25: val(raw.P25), P50: val(raw.P50),
		P75: val(raw.P75), P90: val(raw.P90), P99: val(raw.P99),
		Min: val(raw.Min), Max: val(raw.Max)}
	return nil
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p10=%.3f p50=%.3f p90=%.3f p99=%.3f",
		s.N, s.Mean, s.P10, s.P50, s.P90, s.P99)
}

// TimeSeries records (virtual time, value) pairs.
type TimeSeries struct {
	T []sim.Time
	V []float64
}

// Add appends a point.
func (ts *TimeSeries) Add(t sim.Time, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// N reports the number of points.
func (ts *TimeSeries) N() int { return len(ts.T) }

// MeanOver averages points with from ≤ t < to, returning NaN if none.
func (ts *TimeSeries) MeanOver(from, to sim.Time) float64 {
	sum, n := 0.0, 0
	for i, t := range ts.T {
		if t >= from && t < to {
			sum += ts.V[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MaxFilter is a time-windowed maximum — BBR's bottleneck-bandwidth
// filter and the Sendbox's capacity estimate — kept as a monotone
// decreasing deque whose front is always the window maximum.
type MaxFilter struct {
	samples []maxSample
}

type maxSample struct {
	at sim.Time
	v  float64
}

// Update adds sample v at now and forgets samples older than window.
func (m *MaxFilter) Update(now sim.Time, v float64, window sim.Time) {
	// Expire from the front.
	cut := 0
	for cut < len(m.samples) && now-m.samples[cut].at > window {
		cut++
	}
	m.samples = m.samples[cut:]
	// Dominated samples at the back can never become the maximum.
	for len(m.samples) > 0 && m.samples[len(m.samples)-1].v <= v {
		m.samples = m.samples[:len(m.samples)-1]
	}
	m.samples = append(m.samples, maxSample{now, v})
}

// Get returns the window maximum, or 0 before the first sample.
func (m *MaxFilter) Get() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	return m.samples[0].v
}

// RateCounter converts cumulative byte counts into a windowed throughput
// estimate (bits/second).
type RateCounter struct {
	lastBytes int64
	lastTime  sim.Time
}

// Rate returns throughput since the previous call given the current
// cumulative byte count, then resets the window. Returns 0 for an empty
// interval.
func (rc *RateCounter) Rate(now sim.Time, cumBytes int64) float64 {
	defer func() { rc.lastBytes, rc.lastTime = cumBytes, now }()
	dt := now - rc.lastTime
	if dt <= 0 {
		return 0
	}
	return float64(cumBytes-rc.lastBytes) * 8 / dt.Seconds()
}
