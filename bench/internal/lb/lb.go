// Package lb is what every layer driver shares: the flags the runner
// passes, a timing loop, and the one JSON object a driver prints. It
// imports nothing of the program, so it survives any API change there.
package lb

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// What the runner passes a driver; Main sets them from the flags.
var (
	per = 40 * time.Millisecond
	// Dir is the benchmark's directory (it holds workloads/), Tmp a
	// scratch directory inside the checkout, Seed the seed for generated
	// inputs.
	Dir        = "."
	Tmp        = "."
	Seed int64 = 1
)

// reps is how many timed repetitions Time takes the median of.
const reps = 5

// Per is the time one timed repetition runs; drivers that measure by
// wall-clock span (the pilot, the wall clock) scale their spans by it.
func Per() time.Duration { return per }

// Out collects a driver's metrics by name.
type Out map[string]float64

// Main runs a driver: parse the flags, call fn, print the metrics as one
// JSON object. An error is the driver's whole result: the runner reports
// every metric of the layer as null.
func Main(fn func(o Out) error) {
	flag.DurationVar(&per, "t", per, "time one timed repetition runs")
	flag.StringVar(&Dir, "dir", Dir, "the benchmark's directory")
	flag.StringVar(&Tmp, "tmp", Tmp, "scratch directory")
	flag.Int64Var(&Seed, "seed", Seed, "seed for generated inputs")
	flag.Parse()
	o := Out{}
	if err := fn(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Time measures op, which performs n operations per call. It grows n
// until one call takes the repetition time, then reports the median over
// five such calls of nanoseconds per operation, and the heap allocations
// per operation of the last.
func Time(op func(n int)) (ns, allocs float64) {
	n := 1
	for {
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		if d >= per || n >= 1<<30 {
			break
		}
		// Aim a fifth past the target, as testing.B does, growing at
		// most 100x a step.
		next := 100 * n
		if d > 0 {
			next = min(next, int(1.2*float64(n)*float64(per)/float64(d))+1)
		}
		n = max(next, n+1)
	}
	var (
		times  [reps]float64
		m0, m1 runtime.MemStats
	)
	for i := range times {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		op(n)
		times[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&m1)
	}
	sort.Float64s(times[:])
	return times[reps/2], float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// Median of a sample; 0 when empty.
func Median(v []float64) float64 { return Quantile(v, 0.5) }

// Quantile q of a sample, interpolated between ranks; 0 when empty.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// CPUSeconds is the user plus system CPU time this process has used.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
