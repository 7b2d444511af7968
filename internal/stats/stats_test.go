package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bundler/internal/sim"
)

func TestQuantileExactValues(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEmptyIsNaN(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sample should give NaN")
	}
}

func TestQuantileSingleValue(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestMeanStddev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
}

func TestFractionWithin(t *testing.T) {
	var s Sample
	for _, v := range []float64{-3, -1, 0, 0.5, 2, 10} {
		s.Add(v)
	}
	if got := s.FractionWithin(2); math.Abs(got-4.0/6) > 1e-9 {
		t.Fatalf("FractionWithin(2) = %v, want 4/6", got)
	}
}

func TestSummarize(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 1000 || sum.Min != 0 || sum.Max != 999 {
		t.Fatalf("summary %+v wrong bounds", sum)
	}
	if math.Abs(sum.P50-499.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 499.5", sum.P50)
	}
	if len(sum.String()) == 0 {
		t.Fatal("empty String()")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		var s Sample
		for _, v := range vals {
			s.Add(v)
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: median of sorted data equals middle element interpolation.
func TestPropertyMedianMatchesSort(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		var s Sample
		for _, v := range vals {
			s.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		var want float64
		n := len(sorted)
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			// Half-sum form avoids overflow near ±MaxFloat64, matching
			// the interpolation Quantile performs.
			want = sorted[n/2-1]*0.5 + sorted[n/2]*0.5
		}
		return math.Abs(s.Median()-want) < 1e-9*math.Max(1, math.Abs(want))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesWindows(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 10; i++ {
		ts.Add(sim.Time(i)*sim.Second, float64(i))
	}
	if got := ts.MeanOver(2*sim.Second, 5*sim.Second); got != 3 {
		t.Fatalf("MeanOver = %v, want 3", got)
	}
	if !math.IsNaN(ts.MeanOver(100*sim.Second, 200*sim.Second)) {
		t.Fatal("empty window should be NaN")
	}
	if ts.N() != 10 {
		t.Fatalf("N = %d", ts.N())
	}
}

func TestRateCounter(t *testing.T) {
	var rc RateCounter
	// First call establishes the baseline window from t=0.
	got := rc.Rate(sim.Second, 1_000_000) // 1 MB in 1 s = 8 Mbit/s
	if math.Abs(got-8e6) > 1 {
		t.Fatalf("rate = %v, want 8e6", got)
	}
	got = rc.Rate(2*sim.Second, 1_000_000) // no new bytes
	if got != 0 {
		t.Fatalf("rate = %v, want 0", got)
	}
	if rc.Rate(2*sim.Second, 5_000_000) != 0 {
		t.Fatal("zero-length window should report 0")
	}
}

func TestMaxFilterWindowAndMonotonicity(t *testing.T) {
	var m MaxFilter
	m.Update(0, 5, 10)
	m.Update(1, 3, 10)
	m.Update(2, 4, 10)
	if m.Get() != 5 {
		t.Fatalf("max = %v, want 5", m.Get())
	}
	m.Update(15, 1, 10) // expires everything older than t=5
	if m.Get() != 1 {
		t.Fatalf("max after expiry = %v, want 1", m.Get())
	}
}

// TestReserveInKeepsSamplesApart carves many small samples from one
// arena: one chunk serves them all, and a sample that outgrows its room
// moves out without touching its neighbour's values.
func TestReserveInKeepsSamplesApart(t *testing.T) {
	var a sim.Arena[float64]
	samples := make([]Sample, 100)
	if n := testing.AllocsPerRun(1, func() {
		a = sim.Arena[float64]{}
		for i := range samples {
			samples[i] = Sample{}
			samples[i].ReserveIn(&a, 2)
		}
	}); n != 1 {
		t.Errorf("reserving 100 two-value samples from an arena: %v allocations, want 1", n)
	}
	s1, s2 := &samples[0], &samples[1]
	s1.Add(1)
	s1.Add(2)
	s2.Add(10)
	s1.Add(3) // past its room
	s2.Add(20)
	if s1.N() != 3 || s1.Min() != 1 || s1.Max() != 3 || s1.Mean() != 2 {
		t.Errorf("s1: n %d min %v max %v mean %v, want 3 values 1, 2, 3", s1.N(), s1.Min(), s1.Max(), s1.Mean())
	}
	if s2.N() != 2 || s2.Min() != 10 || s2.Max() != 20 {
		t.Errorf("s2: n %d min %v max %v, want 10 and 20", s2.N(), s2.Min(), s2.Max())
	}
}
