package stats

import (
	"math"
	"math/rand"
	"testing"
)

// quantiles the accuracy tests probe — the same set Summarize reports.
var testQs = []float64{0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1}

// TestSketchQuantileWithinOnePercent is the accuracy contract: on
// heavy-tailed positive data (the shape of slowdowns and FCTs), every
// reported quantile must sit within 1 % relative error of the exact
// answer for the same observations.
func TestSketchQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var exact, sketched Sample
	sketched.UseSketch()
	for i := 0; i < 200000; i++ {
		// Lognormal over ~4 decades plus a shifted floor, like slowdowns.
		v := 1 + math.Exp(rng.NormFloat64()*2)
		exact.Add(v)
		sketched.Add(v)
	}
	for _, q := range testQs {
		e, s := exact.Quantile(q), sketched.Quantile(q)
		if rel := math.Abs(s-e) / e; rel > 0.01 {
			t.Errorf("q=%.2f: sketch %.6g vs exact %.6g (relative error %.4f > 1%%)", q, s, e, rel)
		}
	}
}

// TestSketchSideStatsExact: N, Mean, Min and Max are tracked exactly, not through the buckets.
func TestSketchSideStatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var exact, sketched Sample
	sketched.UseSketch()
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64() * 100 // negatives included
		exact.Add(v)
		sketched.Add(v)
	}
	if exact.N() != sketched.N() {
		t.Fatalf("N: %d vs %d", sketched.N(), exact.N())
	}
	close := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: sketch %.12g, exact %.12g", name, got, want)
		}
	}
	close("mean", sketched.Mean(), exact.Mean())
	close("min", sketched.Min(), exact.Min())
	close("max", sketched.Max(), exact.Max())
}

// TestSketchNegativeAndZeroValues: the sign-mirrored buckets and the
// zero bucket order correctly around zero.
func TestSketchNegativeAndZeroValues(t *testing.T) {
	var s Sample
	s.UseSketch()
	for _, v := range []float64{-100, -10, -1, 0, 0, 1, 10, 100, 1000} {
		s.Add(v)
	}
	if med := s.Median(); math.Abs(med) > 0.01 {
		t.Errorf("median of symmetric-around-zero set = %g, want ≈0", med)
	}
	if q := s.Quantile(0); q != -100 {
		t.Errorf("min quantile %g, want exact -100", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Errorf("max quantile %g, want exact 1000", q)
	}
}

// TestSketchMergeMatchesSequential: merging sketches is exact — the
// merged state answers identically to one sketch fed the concatenation.
func TestSketchMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var all, a, b Sample
	all.UseSketch()
	a.UseSketch()
	b.UseSketch()
	for i := 0; i < 50000; i++ {
		v := math.Exp(rng.NormFloat64() * 3)
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.AddSample(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N %d, want %d", a.N(), all.N())
	}
	for _, q := range testQs {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("q=%.2f: merged %.9g != sequential %.9g", q, got, want)
		}
	}
}

// TestSampleAddSampleModeCombos: every exact/sketch pairing of AddSample
// yields the same observation count and ≤1 %-error quantiles; folding a
// sketch into an exact sample converts the destination.
func TestSampleAddSampleModeCombos(t *testing.T) {
	mk := func(sketch bool, lo, hi int) *Sample {
		var s Sample
		if sketch {
			s.UseSketch()
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < hi; i++ {
			v := 1 + math.Exp(rng.NormFloat64())
			if i >= lo {
				s.Add(v)
			}
		}
		return &s
	}
	var ref Sample // exact over the full stream
	ref.AddSample(mk(false, 0, 5000))
	ref.AddSample(mk(false, 5000, 10000))

	combos := []struct {
		name       string
		dst, src   bool // sketched?
		wantSketch bool
	}{
		{"exact+exact", false, false, false},
		{"sketch+sketch", true, true, true},
		{"sketch+exact", true, false, true},
		{"exact+sketch", false, true, true},
	}
	for _, c := range combos {
		dst := mk(c.dst, 0, 5000)
		dst.AddSample(mk(c.src, 5000, 10000))
		if dst.Sketched() != c.wantSketch {
			t.Errorf("%s: sketched=%v, want %v", c.name, dst.Sketched(), c.wantSketch)
		}
		if dst.N() != ref.N() {
			t.Errorf("%s: N=%d, want %d", c.name, dst.N(), ref.N())
			continue
		}
		for _, q := range testQs {
			e, g := ref.Quantile(q), dst.Quantile(q)
			if rel := math.Abs(g-e) / e; rel > 0.01 {
				t.Errorf("%s q=%.2f: %.6g vs exact %.6g (err %.4f)", c.name, q, g, e, rel)
			}
		}
	}
}

// TestSketchMemoryBounded: the bucket count is set by the data's dynamic
// range, not the observation count — a million observations over six
// decades stay within ~700 log-scale buckets (+1 zero bucket).
func TestSketchMemoryBounded(t *testing.T) {
	var s Sample
	s.UseSketch()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000000; i++ {
		s.Add(math.Pow(10, rng.Float64()*6)) // 1..1e6
	}
	if got := len(s.sk.bins); got > 700 {
		t.Fatalf("%d buckets for 6 decades, want ≤ ⌈6·ln10/ln γ⌉ ≈ 698", got)
	}
	if s.N() != 1000000 {
		t.Fatalf("N=%d", s.N())
	}
}

// TestSketchResetKeepsMode: Reset on a sketched sample empties it but
// stays in sketch mode, mirroring exact mode's buffer reuse.
func TestSketchResetKeepsMode(t *testing.T) {
	var s Sample
	s.UseSketch()
	s.Add(3)
	s.Reset()
	if !s.Sketched() || s.N() != 0 {
		t.Fatalf("after reset: sketched=%v n=%d", s.Sketched(), s.N())
	}
	s.Add(5)
	if s.Median() == 0 || s.N() != 1 {
		t.Fatalf("post-reset add broken: n=%d median=%g", s.N(), s.Median())
	}
}
