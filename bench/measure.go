package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"bundler/bench/internal/drive"
	"bundler/bench/internal/lb"
	"bundler/internal/pkt"
)

// A workload is one set of inputs the benchmark runs. setup is timed as
// setup_s; the instance it returns runs passes.
type workload struct {
	name string
	// warmup is the number of discarded passes before timing starts.
	warmup int
	setup  func(c runConfig) (*instance, error)
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	// seed generates the run's inputs: pass i simulates with scenario
	// seed 1000*seed+i. The request sizes are heavy-tailed (the largest
	// 0.15 % of requests carry 40 % of the bytes), so one scenario seed's
	// packet count, and with it every per-packet figure, swings by half
	// from seed to seed; a run is steady only as a median over a panel.
	seed    int64
	seconds float64 // how long the timed passes measure
	// scale divides every request count; the smoke test runs at 50, the
	// benchmark at 1.
	scale int
	dir   string // the benchmark's directory (holds workloads/)
	tmp   string // scratch directory inside the checkout
	bin   string // where the layer drivers are built
}

// An instance is a workload that has been set up.
type instance struct {
	// run runs the workload once with the given scenario seed: one
	// experiment whole (its result is Cold's only element), or a sweep
	// cold and then warm.
	run func(seed int64) (drive.Sweep, error)
	// flows is the flows one pass requests; cells its sweep cells, 0
	// when the pass is a single experiment run.
	flows, cells int
	// info describes the inputs, for the record's parameters block.
	info map[string]any
}

// outcome is what one pass did, for the output checks.
type outcome struct {
	// digest is the SHA-256 of the pass's Result JSON: simulated
	// statistics are deterministic, so it repeats whenever a scenario
	// seed does.
	digest string
	// ops is the flows and sweep cells requested; failed counts those
	// among them that did not complete; failures names them.
	ops, failed int
	failures    []string
}

// passSample is the host-side measurement of one timed pass.
type passSample struct {
	wall, cpu      float64 // seconds
	pkts           int64
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPU          float64 // seconds of CPU the collector used
	live           int64   // pkt.Live() delta
	out            outcome
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// gcCPUSeconds is the runtime's estimate of the CPU time the garbage
// collector has used; it advances at the end of each cycle.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// timedPass runs one pass and measures it from outside: packets from
// the pool counters, allocations from the runtime, CPU from getrusage.
func timedPass(inst *instance, seed int64) (passSample, error) {
	runtime.GC() // every pass starts from a collected heap, so peak RSS repeats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	live0, pk0, gc0, cpu0 := pkt.Live(), pkt.Stats().Gets, gcCPUSeconds(), lb.CPUSeconds()
	t0 := time.Now()
	res, err := inst.run(seed)
	wall := time.Since(t0).Seconds()
	cpu := lb.CPUSeconds() - cpu0
	pkts := pkt.Stats().Gets - pk0
	live := pkt.Live() - live0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return passSample{}, err
	}
	out, err := check(inst, res)
	return passSample{
		wall: wall, cpu: cpu, pkts: pkts,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcCPU: gcCPUSeconds() - gc0,
		live: live, out: out,
	}, err
}

// series is the per-pass values of one metric.
type series []float64

// metric is one reported number: the median over n samples, with the
// p90 where there are enough samples to have one.
type metric struct {
	// Value is nil when the layer driver that measures it no longer
	// builds or runs; Notes on the record say why.
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n"`
	P90   *float64 `json:"p90,omitempty"`
}

func summarize(s series, unit string) metric {
	med := lb.Median(s)
	m := metric{Value: &med, Unit: unit, N: len(s)}
	if len(s) >= 20 {
		p := lb.Quantile(s, 0.9)
		m.P90 = &p
	}
	return m
}

// record is everything one run of one workload produced.
type record struct {
	Workload     string            `json:"workload"`
	Parameters   map[string]any    `json:"parameters"`
	Metrics      map[string]metric `json:"metrics"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Failures     []string          `json:"failures,omitempty"`
	Notes        map[string]string `json:"notes,omitempty"`
	ResultDigest string            `json:"result_digest,omitempty"`

	firstPass float64
	passes    []passSample
}

// Set-up is repeated until a fifteenth of the run's length has been
// spent on it, so that a sub-millisecond set-up is a median of hundreds
// and a 30 ms one (mesh64) of dozens.
const (
	setupMinReps = 5
	setupMaxReps = 2000
)

// measure runs one workload in this process: set-up, warm-up passes,
// timed passes for c.seconds, one more pass that repeats the first timed
// pass's scenario seed and must repeat its result, then set-up again,
// several times, for setup_s.
func measure(w workload, c runConfig) (*record, error) {
	inst, err := w.setup(c)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}

	rec := &record{Workload: w.name}
	scenarioSeed := func(pass int) int64 { return 1000*c.seed + int64(pass) }
	for i := 0; i < w.warmup; i++ {
		s, err := timedPass(inst, scenarioSeed(i))
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up pass %d: %w", w.name, i+1, err)
		}
		if i == 0 {
			rec.firstPass = s.wall
		}
	}
	for begin := time.Now(); len(rec.passes) == 0 || time.Since(begin).Seconds() < c.seconds; {
		s, err := timedPass(inst, scenarioSeed(w.warmup+len(rec.passes)))
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, len(rec.passes)+1, err)
		}
		rec.passes = append(rec.passes, s)
	}
	again, err := timedPass(inst, scenarioSeed(w.warmup))
	if err != nil {
		return nil, fmt.Errorf("%s: repeat of pass 1: %w", w.name, err)
	}
	rec.ResultDigest = rec.passes[0].out.digest
	rec.Attempted++
	if again.out.digest != rec.ResultDigest {
		rec.Failed++
		rec.Failures = append(rec.Failures, "pass 1 repeated: result digest differs")
	}
	peak := peakRSSMiB()

	// Set-up is timed last, in a process whose heap and caches have
	// settled: right after start-up the same call reads up to twice as
	// slow, run to run.
	runtime.GC()
	var setups series
	budget := time.Duration(c.seconds / 15 * float64(time.Second))
	for begin := time.Now(); len(setups) < setupMinReps ||
		(time.Since(begin) < budget && len(setups) < setupMaxReps); {
		t0 := time.Now()
		if inst, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Time is priced per packet; heap allocation per flow, because the
	// program pools its packets and allocates when it sets a flow up.
	var pps, cpuPer, allocs, bytes series
	for i, s := range rec.passes {
		pkts, flows := float64(s.pkts), float64(inst.flows)
		pps = append(pps, pkts/s.wall)
		cpuPer = append(cpuPer, s.cpu/pkts*1e6)
		allocs = append(allocs, float64(s.mallocs)/flows)
		bytes = append(bytes, float64(s.bytes)/flows)

		// Operations: every flow and cell of every timed pass.
		rec.Attempted += s.out.ops
		rec.Failed += s.out.failed
		for _, f := range s.out.failures {
			rec.Failures = append(rec.Failures, fmt.Sprintf("pass %d: %s", i+1, f))
		}
	}
	rec.Metrics = map[string]metric{
		"setup_s":         summarize(setups, "s"),
		"pkts_per_s":      summarize(pps, "1/s"),
		"cpu_s_per_mpkt":  summarize(cpuPer, "s"),
		"allocs_per_flow": summarize(allocs, "count"),
		"bytes_per_flow":  summarize(bytes, "B"),
		"peak_rss_mb":     summarize(series{peak}, "MiB"),
	}
	rec.Parameters = map[string]any{
		"seed":           c.seed,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"commit":         gitCommit(),
		"warmup_passes":  w.warmup,
		"timed_passes":   len(rec.passes),
		"pkts_per_pass":  rec.passes[0].pkts, // of the first timed pass; it varies with the scenario seed
		"seconds":        c.seconds,
		"request_scale":  c.scale,
		"workload_input": inst.info,
	}
	return rec, nil
}
