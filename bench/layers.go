package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Each layer driver is a main package of its own under layers/, and the
// traced assembly is traced/: a driver that no longer builds against the
// program (a renamed constructor, a deleted package) costs its own
// metrics, reported as null with the compiler's first error line, and
// never the end-to-end run or the other layers.

// drivers lists the driver packages, relative to the benchmark's directory.
func drivers(dir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(dir, "layers"))
	if err != nil {
		return nil, err
	}
	var pkgs []string
	for _, e := range entries {
		if e.IsDir() {
			pkgs = append(pkgs, "./layers/"+e.Name())
		}
	}
	return append(pkgs, "./traced"), nil
}

// firstLine is the first line of a tool's output that is not a "# pkg"
// header.
func firstLine(out []byte) string {
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			return line
		}
	}
	return "no output"
}

// buildDrivers builds every driver into bin and returns, for each that
// failed, why. All at once when they all build; one by one otherwise.
func buildDrivers(dir, bin string, pkgs []string) map[string]string {
	build := func(pkgs ...string) ([]byte, error) {
		cmd := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
		cmd.Dir = dir
		return cmd.CombinedOutput()
	}
	if _, err := build(pkgs...); err == nil {
		return nil
	}
	failed := map[string]string{}
	for _, pkg := range pkgs {
		if out, err := build(pkg); err != nil {
			failed[pkg] = "does not build: " + firstLine(out)
		}
	}
	return failed
}

// runLayers builds and runs every driver in turn and gathers the
// per-layer metrics they print. notes says, per driver, why its metrics
// are missing.
func runLayers(sp *spec, c runConfig) (map[string]metric, map[string]string) {
	metrics, notes := map[string]metric{}, map[string]string{}
	pkgs, err := drivers(c.dir)
	if err != nil {
		notes["layers"] = err.Error()
		return metrics, notes
	}
	bin, err := filepath.Abs(c.bin)
	if err == nil {
		err = os.MkdirAll(bin, 0o755)
	}
	if err != nil {
		notes["layers"] = err.Error()
		return metrics, notes
	}
	failed := buildDrivers(c.dir, bin, pkgs)
	units := map[string]string{}
	for _, d := range sp.PerLayer {
		units[d.Name] = d.Unit
	}
	// One timed repetition of a driver's loop; five make a measurement.
	// A third of a percent of the run keeps the ~50 measurements within it.
	per := time.Duration(c.seconds / 300 * float64(time.Second))
	for _, pkg := range pkgs {
		if why, bad := failed[pkg]; bad {
			notes[pkg] = why
			continue
		}
		cmd := exec.Command(filepath.Join(bin, filepath.Base(pkg)), "-t", per.String(),
			"-dir", c.dir, "-tmp", c.tmp, "-seed", fmt.Sprint(c.seed))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			notes[pkg] = fmt.Sprintf("did not run: %v: %s", err, firstLine(stderr.Bytes()))
			continue
		}
		var vals map[string]float64
		if err := json.Unmarshal(out, &vals); err != nil {
			notes[pkg] = "printed no metrics: " + err.Error()
			continue
		}
		for name, v := range vals {
			metrics[name] = metric{Value: &v, Unit: units[name], N: 1}
		}
	}
	return metrics, notes
}

// runtimeMetrics are the per-layer numbers only the workload's own
// process can give: what its first pass cost cold, the collector's share
// of its timed passes, and whether packets leak from the pool.
func runtimeMetrics(rec *record) map[string]metric {
	var gc, cycles, live series
	for _, s := range rec.passes {
		gc = append(gc, s.gcCPU/s.cpu)
		cycles = append(cycles, float64(s.gcCycles))
		live = append(live, float64(s.live))
	}
	first := rec.firstPass
	return map[string]metric{
		"run.first_pass_s":        {Value: &first, Unit: "s", N: 1},
		"run.gc_cpu_frac":         summarize(gc, "frac"),
		"run.gc_cycles_per_pass":  summarize(cycles, "count"),
		"pkt.live_delta_per_pass": summarize(live, "count"),
	}
}
