package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bundler/internal/clock"
	"bundler/internal/sim"
)

func TestPaperCDFShapeMatchesQuotedAnchors(t *testing.T) {
	d := PaperWebCDF()
	r := rand.New(rand.NewSource(1))
	const n = 200000
	small, huge := 0, 0
	for i := 0; i < n; i++ {
		s := d.Sample(r)
		if s <= 10<<10 {
			small++
		}
		if s > 5<<20 {
			huge++
		}
	}
	fracSmall := float64(small) / n
	if math.Abs(fracSmall-0.976) > 0.01 {
		t.Fatalf("fraction ≤ 10KB = %.4f, want ≈ 0.976", fracSmall)
	}
	fracHuge := float64(huge) / n
	if fracHuge > 0.001 {
		t.Fatalf("fraction > 5MB = %.5f, want ≈ 0.00002", fracHuge)
	}
}

func TestSampleWithinBounds(t *testing.T) {
	d := PaperWebCDF()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		s := d.Sample(r)
		if s < 100 || s > 100<<20 {
			t.Fatalf("sample %d outside [100, 100MB]", s)
		}
	}
}

func TestMeanMatchesEmpirical(t *testing.T) {
	d := PaperWebCDF()
	analytic := d.Mean()
	r := rand.New(rand.NewSource(3))
	var sum float64
	const n = 2_000_000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(r))
	}
	emp := sum / n
	if math.Abs(emp-analytic)/analytic > 0.15 {
		t.Fatalf("empirical mean %.0f vs analytic %.0f (>15%% apart)", emp, analytic)
	}
}

func TestNewSizeDistValidation(t *testing.T) {
	cases := [][2][]float64{
		{{1}, {1}},            // too few points
		{{2, 1}, {0.5, 1}},    // sizes not increasing
		{{1, 2}, {0.9, 0.5}},  // probs not increasing
		{{1, 2}, {0.5, 0.9}},  // does not end at 1
		{{1, 2, 3}, {0.5, 1}}, // length mismatch
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			NewSizeDist(c[0], c[1])
		}()
	}
}

func TestArrivalsRateAndCount(t *testing.T) {
	eng := sim.NewEngine(7)
	d := PaperWebCDF()
	const n = 5000
	var count int
	var bytes int64
	Arrivals(eng, d, 84e6, n, func(size int64) {
		count++
		bytes += size
	})
	eng.Run()
	if count != n {
		t.Fatalf("generated %d arrivals, want %d", count, n)
	}
	// Offered load over the generation horizon ≈ 84 Mbit/s.
	dur := eng.Now().Seconds()
	load := float64(bytes) * 8 / dur
	if load < 0.5*84e6 || load > 2.0*84e6 {
		t.Fatalf("offered load %.1f Mbit/s over %.1fs, want ≈ 84 (heavy tail makes this noisy)", load/1e6, dur)
	}
}

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine(42)
		var sizes []int64
		Arrivals(eng, PaperWebCDF(), 10e6, 100, func(s int64) { sizes = append(sizes, s) })
		eng.Run()
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different workloads")
		}
	}
}

// refArrivals is the recursive-closure Arrivals that the closure-free
// one replaced, kept as the reference for TestArrivalsMatchReference.
func refArrivals(eng clock.Clock, d *SizeDist, offeredBps float64, n int, fn func(size int64)) {
	lambda := offeredBps / 8 / d.Mean()
	var schedule func(i int, at clock.Time)
	schedule = func(i int, at clock.Time) {
		if i >= n {
			return
		}
		clock.At(eng, at, func() {
			fn(d.Sample(eng.Rand()))
			gap := clock.FromSeconds(eng.Rand().ExpFloat64() / lambda)
			schedule(i+1, eng.Now()+gap)
		})
	}
	first := eng.Now() + clock.FromSeconds(eng.Rand().ExpFloat64()/lambda)
	schedule(0, first)
}

// TestArrivalsMatchReference checks Arrivals against the reference: the
// same (time, size) sequence for every seed and count. The callback
// draws from the engine's RNG too, as starting a flow may, so the test
// also pins the draw order: size, then the callback, then the gap.
func TestArrivalsMatchReference(t *testing.T) {
	type arrival struct {
		at   clock.Time
		size int64
	}
	run := func(arrivals func(clock.Clock, *SizeDist, float64, int, func(int64)), seed int64, n int) []arrival {
		eng := sim.NewEngine(seed)
		var got []arrival
		arrivals(eng, PaperWebCDF(), 24e6, n, func(size int64) {
			got = append(got, arrival{eng.Now(), size})
			eng.Rand().Int63()
		})
		eng.Run()
		return got
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, n := range []int{1, 2, 100} {
			got, want := run(Arrivals, seed, n), run(refArrivals, seed, n)
			if len(got) != n || len(want) != n {
				t.Fatalf("seed %d n %d: %d arrivals, reference %d", seed, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n %d: arrival %d = %+v, reference %+v", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestArrivalsAllocs pins what a workload costs: one allocation per
// Arrivals call, none per arrival.
func TestArrivalsAllocs(t *testing.T) {
	const n = 1000
	eng := sim.NewEngine(1)
	count := 0
	fn := func(int64) { count++ }
	if allocs := testing.AllocsPerRun(10, func() {
		Arrivals(eng, PaperWebCDF(), 24e6, n, fn)
		eng.Run()
	}); allocs > 1 {
		t.Errorf("Arrivals of %d requests: %.0f allocations, want ≤ 1", n, allocs)
	}
	if count != 11*n {
		t.Fatalf("%d arrivals fired, want %d", count, 11*n)
	}
}

// counter is an Arrival that counts arrivals.
type counter int

func (c *counter) Arrive(int64) { *c++ }

// TestPoissonInPlaceAllocFree: a Poisson held by its owner and started
// with an Arrival costs no allocation at all, and fires the arrivals
// Arrivals would.
func TestPoissonInPlaceAllocFree(t *testing.T) {
	const n = 1000
	eng := sim.NewEngine(1)
	var p Poisson
	var c counter
	if allocs := testing.AllocsPerRun(10, func() {
		p.Start(eng, PaperWebCDF(), 24e6, n, &c)
		eng.Run()
	}); allocs != 0 {
		t.Errorf("Poisson.Start of %d requests: %.0f allocations, want 0", n, allocs)
	}
	if c != 11*n {
		t.Fatalf("%d arrivals fired, want %d", c, 11*n)
	}
}

func TestOracleFCT(t *testing.T) {
	rtt := 50 * sim.Millisecond
	// A 1-byte flow: 1 RTT + ~0 transmission.
	if got := OracleFCT(1, 96e6, rtt); got < rtt || got > rtt+sim.Millisecond {
		t.Fatalf("oracle for tiny flow = %v, want ≈ 1 RTT", got)
	}
	// 10 KB fits in the initial window: still 1 RTT.
	if got := OracleFCT(10<<10, 96e6, rtt); got < rtt || got > rtt+2*sim.Millisecond {
		t.Fatalf("oracle for 10KB = %v, want ≈ 1 RTT", got)
	}
	// 100 KB needs slow start: more than one RTT.
	if got := OracleFCT(100<<10, 96e6, rtt); got <= rtt+8*sim.Millisecond {
		t.Fatalf("oracle for 100KB = %v, want > 1 RTT", got)
	}
	// Monotone in size.
	prev := sim.Time(0)
	for _, s := range []int64{1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20} {
		got := OracleFCT(s, 96e6, rtt)
		if got < prev {
			t.Fatalf("oracle not monotone at %d", s)
		}
		prev = got
	}
}

func TestClassOf(t *testing.T) {
	cases := map[int64]SizeClass{
		100:       ClassSmall,
		10 << 10:  ClassSmall,
		11 << 10:  ClassMedium,
		1 << 20:   ClassMedium,
		2 << 20:   ClassLarge,
		100 << 20: ClassLarge,
	}
	for size, want := range cases {
		if got := ClassOf(size); got != want {
			t.Fatalf("ClassOf(%d) = %v, want %v", size, got, want)
		}
	}
	for _, c := range []SizeClass{ClassSmall, ClassMedium, ClassLarge} {
		if c.String() == "?" {
			t.Fatal("missing class name")
		}
	}
}

func TestRecorderSlowdownFloorsAtOne(t *testing.T) {
	rec := NewRecorder(96e6, 50*sim.Millisecond)
	rec.Record(1000, sim.Millisecond) // impossibly fast: floor to 1
	if got := rec.Slowdowns.Median(); got != 1 {
		t.Fatalf("slowdown = %v, want floor of 1", got)
	}
	rec.Record(1000, 500*sim.Millisecond) // 10x the oracle
	if rec.Completed != 2 || rec.Bytes != 2000 {
		t.Fatalf("recorder counts wrong: %d/%d", rec.Completed, rec.Bytes)
	}
	if rec.ByClass[ClassSmall].N() != 2 {
		t.Fatal("class bucketing missed")
	}
}

// Property: sampled sizes follow the CDF (Kolmogorov-style spot check at
// each anchor point).
func TestPropertyCDFAnchors(t *testing.T) {
	f := func(seed int64) bool {
		d := PaperWebCDF()
		r := rand.New(rand.NewSource(seed))
		const n = 20000
		at1KB := 0
		for i := 0; i < n; i++ {
			if d.Sample(r) <= 1<<10 {
				at1KB++
			}
		}
		frac := float64(at1KB) / n
		return math.Abs(frac-0.65) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
