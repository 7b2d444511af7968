// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics BENCHMARK.json names (measured with tracing off)
// and, with -trace 1, the per-layer metrics from the drivers under
// layers/ and the traced dumbbell under traced/. README.md is the
// glossary.
//
//	bash bench/run.sh                         every workload, end to end
//	bash bench/run.sh -workload mesh64 -seed 2
//	bash bench/run.sh -layers                 per-layer metrics (= -trace 1)
//	bash bench/run.sh -selfcheck              two sets, compared to the bounds
//
// With -workload the workload runs in this process and the last line of
// standard output is the result object the pipeline reads. Without it
// the runner re-executes itself once per workload, so peak RSS, GC state
// and GOMAXPROCS belong to that workload alone and a crash costs one
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this workload only, in this process (default: all, one child each)")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the traced run")
		layers    = flag.Bool("layers", false, "same as -trace 1")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end suite twice and compare the medians to the bounds")
		out       = flag.String("out", "", "also write the full records (parameters, sample counts, digests) to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *layers {
		*trace = 1
	}

	dir := benchDir()
	sp, err := readSpec(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	build := filepath.Join(dir, "..", ".bench_build")
	c := runConfig{seed: *seed, seconds: *seconds, scale: 1, dir: dir,
		tmp: filepath.Join(build, "tmp"), bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(sp, c))
	case *name == "":
		recs, failed := runAll(c, *trace)
		if *out != "" {
			if err := writeJSON(*out, recs); err != nil {
				fatal(err)
			}
		}
		if failed {
			os.Exit(1)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rec, err := runOne(sp, w, c, *trace)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, []*record{rec}); err != nil {
				fatal(err)
			}
		}
		printResultLine(sp, rec, *trace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// benchDir finds the benchmark's own directory from the checkout root
// (how run.sh starts the runner) or from inside it (go run -C bench .).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "workloads")); err == nil {
		return "bench"
	}
	return "."
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the pipeline's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs one workload in this process and prints its metrics by
// name. With trace 1 the workload runs for a fifth of the time, to give
// the Go runtime's share of it, and the layer drivers take the rest.
func runOne(sp *spec, w workload, c runConfig, trace int) (*record, error) {
	if trace == 0 {
		rec, err := measure(w, c)
		if err != nil {
			return nil, err
		}
		printRecord(sp.EndToEnd, rec)
		return rec, nil
	}
	short := c
	short.seconds = c.seconds / 5
	rec, err := measure(w, short)
	if err != nil {
		return nil, err
	}
	layerMetrics, notes := runLayers(sp, c)
	for k, v := range runtimeMetrics(rec) {
		layerMetrics[k] = v
	}
	rec.Metrics = layerMetrics
	rec.Notes = notes
	printRecord(sp.PerLayer, rec)
	return rec, nil
}

// printRecord prints every metric of the list by name, with its unit and
// sample count, then the output checks.
func printRecord(defs []metricDef, rec *record) {
	fmt.Printf("== %s  seed %v, %v timed passes after %v warm-up, %v packets/pass\n", rec.Workload,
		rec.Parameters["seed"], rec.Parameters["timed_passes"], rec.Parameters["warmup_passes"], rec.Parameters["pkts_per_pass"])
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok || m.Value == nil:
			fmt.Printf("%-38s %14s %-6s\n", d.Name, "null", d.Unit)
		case m.P90 != nil:
			fmt.Printf("%-38s %14.6g %-6s n=%d p90=%.6g\n", d.Name, *m.Value, m.Unit, m.N, *m.P90)
		default:
			fmt.Printf("%-38s %14.6g %-6s n=%d\n", d.Name, *m.Value, m.Unit, m.N)
		}
	}
	names := make([]string, 0, len(rec.Notes))
	for k := range rec.Notes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("note: %s: %s\n", k, rec.Notes[k])
	}
	if rec.ResultDigest != "" {
		fmt.Printf("result_digest %s\n", rec.ResultDigest)
	}
	fmt.Printf("operations attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
}

// printResultLine prints the one JSON object the pipeline reads: the
// end-to-end metrics with trace 0, the per-layer metrics with trace 1.
func printResultLine(sp *spec, rec *record, trace int) {
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	defs := sp.EndToEnd
	if trace == 1 {
		defs = sp.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{rec.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a child of its own and returns their
// records. A workload that could not run at all is reported and skipped.
func runAll(c runConfig, trace int) (recs []*record, failed bool) {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	for _, w := range workloads {
		path := filepath.Join(c.tmp, fmt.Sprintf("%s.%d.json", w.name, os.Getpid()))
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(c.seed),
			"-seconds", fmt.Sprint(c.seconds), "-trace", fmt.Sprint(trace), "-out", path)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s could not run: %v\n", w.name, err)
			failed = true
			continue
		}
		var got []*record
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &got)
		}
		os.Remove(path)
		if err != nil || len(got) != 1 {
			fmt.Fprintf(os.Stderr, "bench: workload %s left no record: %v\n", w.name, err)
			failed = true
			continue
		}
		recs = append(recs, got[0])
	}
	return recs, failed
}

// runSelfcheck runs the end-to-end suite twice back to back and holds
// the two sets of medians to the benchmark's own bounds.
func runSelfcheck(sp *spec, c runConfig) int {
	first, failedA := runAll(c, 0)
	second, failedB := runAll(c, 0)
	if failedA || failedB || len(first) != len(second) {
		return 1
	}
	fmt.Printf("\n%-15s %-16s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	status := 0
	for i, a := range first {
		b := second[i]
		for _, d := range sp.EndToEnd {
			va, vb := *a.Metrics[d.Name].Value, *b.Metrics[d.Name].Value
			diff := (vb - va) / va
			verdict := ""
			if diff > d.Bound || diff < -d.Bound {
				verdict = "  DISAGREE"
				status = 1
			}
			fmt.Printf("%-15s %-16s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n", a.Workload, d.Name, va, vb, diff*100, d.Bound*100, verdict)
		}
		if a.ResultDigest != b.ResultDigest {
			fmt.Printf("%-15s result digests differ: %s, %s\n", a.Workload, a.ResultDigest, b.ResultDigest)
			status = 1
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-15s operations failed: %d, %d\n", a.Workload, a.Failed, b.Failed)
			status = 1
		}
	}
	return status
}
