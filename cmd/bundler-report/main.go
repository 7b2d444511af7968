// Command bundler-report diffs two sweep/run result files (JSON arrays
// from bundler-bench -sweep -out or bundler-pilot -out) and gates on
// regressions — the tool CI's result gates are built
// from. Cells are matched on (experiment, seed, params); metric or
// summary drift beyond -tol, missing cells/metrics, new errors, and — in
// exact mode — golden-table drift of the rendered report text fail.
//
// It does not compare performance: benchmarks are measured and compared
// by `bash bench/run.sh` (see bench/README.md), and a benchmark file (a
// JSON object) given here is refused with exit status 2.
//
// Exit status: 0 clean, 1 regressions found, 2 usage or I/O error.
//
// Example:
//
//	bundler-report baseline-sweep.json sweep.json          # exact
//	bundler-report -tol 0.01 baseline-sweep.json sweep.json
//	bundler-report -json report.json old.json new.json     # machine output too
package main

import (
	"flag"
	"fmt"
	"os"

	"bundler/internal/report"
)

func main() {
	var (
		tol = flag.Float64("tol", 0,
			"relative metric/summary tolerance (0 = exact; report-text drift only gates at 0)")
		jsonOut = flag.String("json", "",
			`also write the machine-readable report to this file ("-" for stdout, replacing the text)`)
		quiet = flag.Bool("q", false, "suppress the text report (exit status still reflects the verdict)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bundler-report [flags] OLD NEW\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Diffs two result files (JSON arrays of cells); benchmarks are compared by `bash bench/run.sh`.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	r, err := report.DiffFiles(flag.Arg(0), flag.Arg(1), report.Options{MetricTol: *tol})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *jsonOut == "-" {
		if err := r.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		if !*quiet {
			if err := r.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if err := r.WriteJSON(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	if !r.OK {
		os.Exit(1)
	}
}
