// Package workload generates the paper's evaluation traffic: request sizes
// drawn from a heavy-tailed empirical CDF measured at an Internet core
// router (§7.1 — 97.6 % of requests ≤ 10 KB, the largest 0.002 % between
// 5 MB and 100 MB), open-loop Poisson arrivals at a configured offered
// load, and flow-completion-time bookkeeping with the paper's "slowdown"
// metric (FCT divided by the unloaded completion time). Flow sizes are
// bytes, offered loads are bits/second, completion times are clock.Time
// (recorded in milliseconds).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"bundler/internal/clock"
	"bundler/internal/pkt"
	"bundler/internal/sim"
	"bundler/internal/stats"
)

// SizeDist is a piecewise log-linear empirical CDF over flow sizes in
// bytes.
type SizeDist struct {
	sizes []float64 // strictly increasing
	probs []float64 // strictly increasing, ends at 1
}

// NewSizeDist builds a distribution from (size, cumulative probability)
// points. The first point's probability bounds the smallest sizes; the
// last probability must be 1. It panics on invalid points; code paths
// fed by user-supplied config files use MakeSizeDist instead.
func NewSizeDist(sizes, probs []float64) *SizeDist {
	d, err := MakeSizeDist(sizes, probs)
	if err != nil {
		panic("workload: " + err.Error())
	}
	return d
}

// MakeSizeDist is NewSizeDist returning an error instead of panicking —
// the entry point for internal/topo's declarative configs, where a bad
// CDF is user input, not a programming error.
func MakeSizeDist(sizes, probs []float64) (*SizeDist, error) {
	if len(sizes) != len(probs) || len(sizes) < 2 {
		return nil, fmt.Errorf("need matching size/prob points (got %d sizes, %d probs)", len(sizes), len(probs))
	}
	if sizes[0] <= 0 {
		return nil, fmt.Errorf("sizes must be positive (got %g)", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] || probs[i] <= probs[i-1] {
			return nil, fmt.Errorf("CDF points must be strictly increasing (point %d)", i)
		}
	}
	if probs[len(probs)-1] != 1 {
		return nil, fmt.Errorf("CDF must end at probability 1 (got %g)", probs[len(probs)-1])
	}
	return &SizeDist{sizes: sizes, probs: probs}, nil
}

// NamedDist returns a built-in size distribution: "web" (or "") is the
// paper's §7.1 core-router request CDF.
func NamedDist(name string) (*SizeDist, error) {
	switch name {
	case "", "web":
		return PaperWebCDF(), nil
	default:
		return nil, fmt.Errorf("unknown size distribution %q (want \"web\" or inline sizes/probs)", name)
	}
}

// PaperWebCDF reproduces the shape of the request-size CDF the paper draws
// from a CAIDA core-router trace: mostly-tiny requests with a tail to
// 100 MB. Quoted anchors: 97.6 % ≤ 10 KB; largest 0.002 % in 5–100 MB.
// Every call returns the same distribution; a SizeDist is immutable, so
// one value serves every workload and goroutine.
func PaperWebCDF() *SizeDist { return paperWeb }

var paperWeb = NewSizeDist(
	[]float64{100, 1 << 10, 10 << 10, 100 << 10, 1 << 20, 5 << 20, 100 << 20},
	[]float64{0.30, 0.65, 0.976, 0.990, 0.9985, 0.99998, 1.0},
)

// Sample draws one flow size.
func (d *SizeDist) Sample(r *rand.Rand) int64 {
	u := r.Float64()
	if u <= d.probs[0] {
		return int64(d.sizes[0])
	}
	for i := 1; i < len(d.probs); i++ {
		if u <= d.probs[i] {
			// Log-linear interpolation within the segment.
			frac := (u - d.probs[i-1]) / (d.probs[i] - d.probs[i-1])
			lo, hi := d.sizes[i-1], d.sizes[i]
			return int64(lo * math.Pow(hi/lo, frac))
		}
	}
	return int64(d.sizes[len(d.sizes)-1])
}

// Mean returns the exact distribution mean in bytes (log-mean per
// segment).
func (d *SizeDist) Mean() float64 {
	mean := d.probs[0] * d.sizes[0]
	for i := 1; i < len(d.probs); i++ {
		p := d.probs[i] - d.probs[i-1]
		lo, hi := d.sizes[i-1], d.sizes[i]
		mean += p * (hi - lo) / math.Log(hi/lo)
	}
	return mean
}

// Arrivals schedules fn for n Poisson arrivals whose mean rate sustains
// offeredBps of load given the distribution's mean flow size. fn receives
// the drawn flow size. Arrival times use the engine's deterministic RNG:
// each arrival draws its size, runs fn, then draws the gap to the next.
func Arrivals(eng clock.Clock, d *SizeDist, offeredBps float64, n int, fn func(size int64)) {
	new(Poisson).Start(eng, d, offeredBps, n, arrivalFunc(fn))
}

// Arrival is told each arrival's drawn flow size. A workload's owner
// implements it on the record that holds the Poisson, so starting the
// workload allocates no closure.
type Arrival interface {
	Arrive(size int64)
}

// arrivalFunc adapts Arrivals' plain func to Arrival.
type arrivalFunc func(size int64)

func (f arrivalFunc) Arrive(size int64) { f(size) }

// Poisson is one Arrivals workload, held in place by its owner. It
// re-schedules itself through CallAt with the package-level arrive, so
// it costs no allocation however many arrivals it makes.
type Poisson struct {
	eng    clock.Clock
	d      *SizeDist
	lambda float64 // requests per second
	left   int     // arrivals not yet fired, this one included
	to     Arrival
}

// Start schedules the arrivals of Arrivals(eng, d, offeredBps, n, …)
// on a, telling to of each. a must not be moved while arrivals remain.
func (a *Poisson) Start(eng clock.Clock, d *SizeDist, offeredBps float64, n int, to Arrival) {
	if offeredBps <= 0 || n <= 0 {
		panic("workload: offered load and request count must be positive")
	}
	*a = Poisson{eng: eng, d: d, lambda: offeredBps / 8 / d.Mean(), left: n, to: to}
	eng.CallAt(eng.Now()+a.gap(), arrive, a, nil)
}

func (a *Poisson) gap() clock.Time {
	return clock.FromSeconds(a.eng.Rand().ExpFloat64() / a.lambda)
}

// arrive fires one arrival of the *Poisson in a0 and schedules the next.
func arrive(a0, _ any) {
	a := a0.(*Poisson)
	a.to.Arrive(a.d.Sample(a.eng.Rand()))
	gap := a.gap()
	if a.left--; a.left > 0 {
		a.eng.CallAt(a.eng.Now()+gap, arrive, a, nil)
	}
}

// OracleFCT estimates a request's completion time on an unloaded path:
// slow-start round trips from a 10-segment initial window plus
// transmission time. This is the denominator of the paper's slowdown
// metric.
func OracleFCT(size int64, linkRate float64, rtt clock.Time) clock.Time {
	iw := int64(10 * pkt.MSS)
	rtts := 1
	for sent := iw; sent < size; sent = sent*2 + iw {
		rtts++
	}
	tx := clock.FromSeconds(float64(size) * 8 / linkRate)
	return clock.Time(rtts)*rtt + tx
}

// SizeClass buckets flows the way Figure 9 groups them.
type SizeClass int

// Figure 9's request-size groups.
const (
	ClassSmall  SizeClass = iota // ≤ 10 KB
	ClassMedium                  // 10 KB – 1 MB
	ClassLarge                   // > 1 MB
)

func (c SizeClass) String() string {
	switch c {
	case ClassSmall:
		return "(0, 10KB]"
	case ClassMedium:
		return "(10KB, 1MB]"
	case ClassLarge:
		return "(1MB, inf)"
	}
	return "?"
}

// ClassOf buckets a size.
func ClassOf(size int64) SizeClass {
	switch {
	case size <= 10<<10:
		return ClassSmall
	case size <= 1<<20:
		return ClassMedium
	default:
		return ClassLarge
	}
}

// Recorder accumulates per-flow completion results.
type Recorder struct {
	linkRate float64
	rtt      clock.Time

	// Slowdowns holds FCT/oracle per completed flow.
	Slowdowns stats.Sample
	// FCTms holds raw completion times in milliseconds.
	FCTms stats.Sample
	// ByClass splits slowdowns by Figure 9's size groups.
	ByClass [3]stats.Sample
	// FCTByClass holds raw completion times (ms) per size group; the
	// §7.5 proxy comparison uses these because its ramp-up savings push
	// slowdowns below the metric's floor of 1.
	FCTByClass [3]stats.Sample
	// Completed counts finished flows; Bytes sums their sizes.
	Completed int
	Bytes     int64
	// Requests is the workload's target flow count, which Done compares
	// Completed against.
	Requests int
}

// NewRecorder builds a recorder that normalizes against the given unloaded
// path parameters.
func NewRecorder(linkRate float64, rtt clock.Time) *Recorder {
	r := new(Recorder)
	r.Init(linkRate, rtt)
	return r
}

// Init sets r up in place as NewRecorder's recorder, for an owner that
// holds its recorder by value.
func (r *Recorder) Init(linkRate float64, rtt clock.Time) {
	*r = Recorder{linkRate: linkRate, rtt: rtt}
}

// Reserve pre-sizes the recorder's sample buffers for n expected flows,
// batching what would otherwise be grow-on-Add reallocation during the
// run. The per-class samples are sized by the web CDF's class shares
// (97.6 % small) with headroom, since exact splits are seed-dependent.
// Tiny workloads (n < 32) are left to grow on Add: below a few dozen
// flows the eight reservation allocations cost more than the appends
// they would save. An owner of many small recorders (a large mesh
// carries one per ordered site pair, thousands of them, most seeing a
// handful of flows each) reserves them with ReserveIn instead.
func (r *Recorder) Reserve(n int) { r.ReserveIn(nil, n) }

// ReserveIn is Reserve with a small n's buffers carved from a: the
// all-flow samples and the small class's, which the web CDF gives 97.6 %
// of flows, get room for all n, so the recorder usually costs no
// allocation of its own; a rarer medium or large flow grows its class's
// sample on Add. A nil a leaves a small n to grow on Add, as Reserve
// does; a large n reserves as Reserve does either way.
func (r *Recorder) ReserveIn(a *sim.Arena[float64], n int) {
	if n < 32 {
		if a == nil {
			return
		}
		r.Slowdowns.ReserveIn(a, n)
		r.FCTms.ReserveIn(a, n)
		r.ByClass[ClassSmall].ReserveIn(a, n)
		r.FCTByClass[ClassSmall].ReserveIn(a, n)
		return
	}
	r.Slowdowns.Reserve(n)
	r.FCTms.Reserve(n)
	small := n
	medium := n/16 + 16
	large := n/256 + 16
	for c, want := range [3]int{small, medium, large} {
		r.ByClass[c].Reserve(want)
		r.FCTByClass[c].Reserve(want)
	}
}

// UseSketch switches every sample the recorder holds to bounded sketch
// mode (see the accuracy contract in internal/stats/sketch.go): memory
// per recorder becomes independent of the flow count, and Merge folds
// bucket maps instead of concatenating slices. Mesh-scale runs with
// emulated-user background load switch their recorders before the first
// flow completes.
func (r *Recorder) UseSketch() {
	r.Slowdowns.UseSketch()
	r.FCTms.UseSketch()
	for c := range r.ByClass {
		r.ByClass[c].UseSketch()
		r.FCTByClass[c].UseSketch()
	}
}

// Done reports whether every requested flow has completed.
func (r *Recorder) Done() bool { return r.Completed >= r.Requests }

// RecordUncounted marks a flow complete without contributing to the
// statistics — used for warmup traffic that loads the network while the
// control loops converge.
func (r *Recorder) RecordUncounted() { r.Completed++ }

// Record registers one completed flow.
func (r *Recorder) Record(size int64, fct clock.Time) {
	oracle := OracleFCT(size, r.linkRate, r.rtt)
	slow := float64(fct) / float64(oracle)
	if slow < 1 {
		slow = 1
	}
	r.Slowdowns.Add(slow)
	r.FCTms.Add(fct.Millis())
	r.ByClass[ClassOf(size)].Add(slow)
	r.FCTByClass[ClassOf(size)].Add(fct.Millis())
	r.Completed++
	r.Bytes += size
}

// Merge folds another recorder's completed-flow statistics into r — how
// the mesh experiments aggregate per-destination-pair recorders into one
// site-to-site table row. Both recorders' samples are already normalized
// slowdowns/times, so merging is pure concatenation; o is left untouched.
func (r *Recorder) Merge(o *Recorder) {
	r.Slowdowns.AddSample(&o.Slowdowns)
	r.FCTms.AddSample(&o.FCTms)
	for c := range r.ByClass {
		r.ByClass[c].AddSample(&o.ByClass[c])
		r.FCTByClass[c].AddSample(&o.FCTByClass[c])
	}
	r.Completed += o.Completed
	r.Bytes += o.Bytes
}
