// Command bundler-bench regenerates the paper's evaluation: every figure
// in §7–§8 plus the §4.5 microbenchmarks, printed as the same rows and
// series the paper reports. The experiment list, help text, and "all"
// ordering all come from the internal/exp registry — registering a new
// experiment in internal/scenario is enough to make it runnable here.
//
// Example:
//
//	bundler-bench                             # everything (several minutes)
//	bundler-bench -experiment fig9            # just the headline FCT comparison
//	bundler-bench -requests 50000             # closer to paper scale
//	bundler-bench -experiment fct -set mode=statusquo,rate=48e6
//	bundler-bench -sweep -parallel 8 -out results.json
//	bundler-bench -sweep -grid "rate=24e6,96e6;sched=sfq,fifo;requests=2000;seed=1,2"
//	bundler-bench -sweep -store /tmp/rs -resume -out results.json   # checkpoint + resume
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"
	"time"

	"bundler/internal/exp"
	"bundler/internal/runstore"
	_ "bundler/internal/scenario" // registers every experiment
	"bundler/internal/topo"
)

// defaultGrid is the out-of-the-box -sweep space: 3 rates × 3 RTTs ×
// 2 schedulers × 2 loads = 36 points of the single-point FCT experiment.
const defaultGrid = "rate=24e6,48e6,96e6;rtt=20ms,50ms,100ms;sched=sfq,fifo;loadfrac=0.5,0.875;requests=1200"

func main() {
	var (
		experiment = flag.String("experiment", "all",
			strings.Join(exp.Names(), "|")+"|all (aliases: "+aliasHelp()+"; -config files add more)")
		requests = flag.Int("requests", 15000,
			"requests per FCT experiment (paper: 1,000,000); when not set, each experiment's declared default applies")
		seed     = flag.Int64("seed", 1, "simulation seed")
		dump     = flag.String("dump", "", "directory to write CSV traces of the timeline figures (fig2, fig10)")
		set      = flag.String("set", "", "extra experiment params, comma-separated k=v pairs (see -experiment <name> -params)")
		params   = flag.Bool("params", false, "print the selected experiment's parameters and exit")
		sweep    = flag.Bool("sweep", false, "run a parameter sweep of -sweepexp over -grid instead of single experiments")
		sweepExp = flag.String("sweepexp", "fct", "experiment the sweep grid parameterizes")
		grid     = flag.String("grid", defaultGrid, `sweep grid "axis=v1,v2;..."; a seed axis overrides -seed`)
		parallel = flag.Int("parallel", runtime.NumCPU(), "sweep worker goroutines")
		out      = flag.String("out", "", "sweep results file (.json or .csv); default: CSV to stdout")
		config   = flag.String("config", "",
			"comma-separated declarative scenario files or directories (*.json) to load and register as experiments; a config named like a built-in shadows it")
		store = flag.String("store", "",
			"run store directory: completed sweep cells are checkpointed there as content-addressed manifests (default with -resume: $BUNDLER_RUNSTORE or the user cache dir)")
		resume = flag.Bool("resume", false,
			"load already-stored sweep cells from the run store instead of re-running them (only missing cells execute)")
		storePrune = flag.Duration("store-prune", 0,
			"evict run-store cells older than this age (e.g. 720h), then exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		tracePath  = flag.String("trace", "", "write a runtime execution trace to this file (go tool trace)")
	)
	flag.Parse()
	stopProfiles = startProfiles(*cpuProfile, *memProfile, *tracePath)
	defer stopProfiles()

	// Distinguish "-requests 15000" from the flag's default: experiments
	// (and loaded configs in particular) declare their own defaults, and
	// the flag must only override them when the user actually set it.
	requestsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "requests" {
			requestsSet = true
		}
	})

	loadConfigs(*config)

	if *storePrune > 0 {
		pruneStore(*store, *storePrune)
		return
	}
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			fatal("dump:", err)
		}
	}

	if *sweep {
		runSweep(*sweepExp, *grid, *set, *seed, *parallel, *out, *store, *resume)
		return
	}
	if *resume || *store != "" {
		fatal("-store/-resume only apply with -sweep (single runs are cheap; the store exists to checkpoint grids)")
	}

	pairs, err := parseSet(*set)
	if err != nil {
		fatal(err)
	}

	if *experiment == "all" {
		if *params {
			for _, e := range exp.All() {
				printParams(e)
			}
			return
		}
		// -set keys must be declared by at least one experiment; each
		// experiment then receives only the keys it declares.
		for k := range pairs {
			if !anyDeclares(k) {
				fatal(fmt.Sprintf("-set %s: no experiment declares that param (see -params)", k))
			}
		}
		for _, e := range exp.All() {
			runOne(e, *seed, paramsFor(e, *requests, requestsSet, *dump, pairs, false), *dump)
		}
		return
	}
	e, ok := exp.Lookup(*experiment)
	if !ok {
		fatal("unknown experiment " + *experiment + "; see -help")
	}
	if *params {
		printParams(e)
		return
	}
	runOne(e, *seed, paramsFor(e, *requests, requestsSet, *dump, pairs, true), *dump)
}

// paramsFor assembles an experiment's params: the -requests and -dump
// flags map onto the declared "requests"/"artifacts" params, and -set
// pairs are checked against the declaration (strict mode rejects
// unknown keys; "all" mode skips keys other experiments own). -requests
// applies only when explicitly given, so an experiment's own declared
// default — a loaded config's, say — wins otherwise.
func paramsFor(e exp.Experiment, requests int, requestsSet bool, dumpDir string, pairs map[string]string, strict bool) exp.Params {
	declared := map[string]bool{}
	for _, pd := range e.Params() {
		declared[pd.Name] = true
	}
	p := exp.Params{}
	if requestsSet && declared["requests"] {
		p["requests"] = strconv.Itoa(requests)
	}
	if dumpDir != "" && declared["artifacts"] {
		p["artifacts"] = "true"
	}
	for k, v := range pairs {
		if !declared[k] {
			if strict {
				fatal(fmt.Sprintf("-set %s: %s has no such param (see -experiment %s -params)",
					k, e.Name(), e.Name()))
			}
			continue
		}
		p[k] = v
	}
	return p
}

func anyDeclares(param string) bool {
	for _, e := range exp.All() {
		for _, pd := range e.Params() {
			if pd.Name == param {
				return true
			}
		}
	}
	return false
}

func runOne(e exp.Experiment, seed int64, params exp.Params, dumpDir string) {
	flush := collectNotes()
	res, err := e.Run(seed, params)
	if err != nil {
		fatal(e.Name()+":", err)
	}
	fmt.Print(res.Report)
	flush(os.Stdout)
	for _, a := range res.Artifacts {
		dumpArtifact(dumpDir, a)
	}
}

// collectNotes gathers the notes runs leave (exp.Note: what a run that
// stopped at its horizon unfinished still had in flight) until the
// returned flush prints them to w, under the run summary.
func collectNotes() (flush func(w io.Writer)) {
	var lines []string
	exp.SetNotes(func(line string) { lines = append(lines, line) })
	return func(w io.Writer) {
		exp.SetNotes(nil)
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
}

// openStore opens the run store for a sweep: at storeDir when given,
// else (with -resume) at the default location. Returns nil when the
// store is disabled.
func openStore(storeDir string, resume bool) *runstore.Store {
	if storeDir == "" {
		if !resume {
			return nil
		}
		storeDir = runstore.DefaultDir()
	}
	s, err := runstore.Open(storeDir)
	if err != nil {
		fatal(err)
	}
	return s
}

func pruneStore(storeDir string, age time.Duration) {
	s, err := runstore.Open(storeDir) // "" falls back to the default dir
	if err != nil {
		fatal(err)
	}
	removed, err := s.Prune(age)
	if err != nil {
		fatal("store-prune:", err)
	}
	fmt.Fprintf(os.Stderr, "store: evicted %d cells older than %s from %s\n", removed, age, s.Root())
}

func runSweep(name, gridSpec, setSpec string, seed int64, parallel int, outPath, storeDir string, resume bool) {
	e, ok := exp.Lookup(name)
	if !ok {
		fatal("sweep: unknown experiment " + name)
	}
	g, err := exp.ParseGrid(gridSpec)
	if err != nil {
		fatal(err)
	}
	// -set pairs become single-value axes (fixed across the sweep); a
	// -set seed pins the sweep seed the same way the -seed flag does.
	pairs, err := parseSet(setSpec)
	if err != nil {
		fatal(err)
	}
	if sv, ok := pairs["seed"]; ok {
		if len(g.Seeds) > 0 {
			fatal("seed given both in -grid and -set; pick one")
		}
		s, perr := strconv.ParseInt(sv, 10, 64)
		if perr != nil {
			fatal(fmt.Sprintf("-set seed=%q: %v", sv, perr))
		}
		g.Seeds = []int64{s}
		delete(pairs, "seed")
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{seed}
	}
	swept := map[string]bool{}
	for _, a := range g.Axes {
		swept[a.Name] = true
	}
	for _, k := range sortedKeys(pairs) {
		if swept[k] {
			fatal(fmt.Sprintf("param %s given both in -grid and -set; pick one", k))
		}
		g.Axes = append(g.Axes, exp.Axis{Name: k, Values: []string{pairs[k]}})
	}
	st := openStore(storeDir, resume)
	total := g.Size()
	fmt.Fprintf(os.Stderr, "sweep: %s over %d points, %d workers\n", e.Name(), total, parallel)
	if st != nil {
		mode := "checkpointing to"
		if resume {
			mode = "resuming from"
		}
		fmt.Fprintf(os.Stderr, "sweep: %s run store %s\n", mode, st.Root())
	}
	opt := exp.Options{
		Parallel: parallel,
		Resume:   resume,
		Progress: func(done, total, cached int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d points (%d cached)", done, total, cached)
		},
	}
	if st != nil {
		opt.Cache = st
	}
	flush := collectNotes()
	results, stats, err := exp.SweepOpts(e, g, opt)
	if results == nil && err != nil {
		fatal(err) // the grid itself was rejected; nothing ran
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprintf(os.Stderr, "sweep: %d points: %d cached, %d executed\n",
		stats.Total, stats.Cached, stats.Executed)
	flush(os.Stderr)
	if st != nil {
		if serr := st.Err(); serr != nil {
			fmt.Fprintln(os.Stderr, "sweep: warning: run-store checkpointing incomplete:", serr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep: some points failed:", err)
	}

	switch {
	case outPath == "":
		if err := exp.WriteCSV(os.Stdout, results); err != nil {
			fatal(err)
		}
	default:
		f, ferr := os.Create(outPath)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		emit := exp.WriteJSON
		if strings.HasSuffix(outPath, ".csv") {
			emit = exp.WriteCSV
		}
		if werr := emit(f, results); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "wrote %d results to %s\n", len(results), outPath)
	}
	if err != nil {
		stopProfiles() // os.Exit skips the deferred flush
		os.Exit(1)
	}
}

// loadConfigs registers every declarative scenario named by the -config
// flag: a comma-separated list of files and/or directories (a directory
// contributes its *.json files, sorted). Loaded configs become ordinary
// registry entries — runnable, listable, sweepable — and a config whose
// name matches a built-in experiment replaces it for this invocation.
func loadConfigs(spec string) {
	if spec == "" {
		return
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		paths := []string{entry}
		if st, err := os.Stat(entry); err == nil && st.IsDir() {
			var gerr error
			paths, gerr = filepath.Glob(filepath.Join(entry, "*.json"))
			if gerr != nil || len(paths) == 0 {
				fatal("-config " + entry + ": no *.json files found")
			}
			sort.Strings(paths)
		}
		for _, path := range paths {
			e, replaced, err := topo.RegisterFile(path)
			if err != nil {
				fatal(err)
			}
			if replaced {
				fmt.Fprintf(os.Stderr, "config %s: %q shadows the built-in experiment\n", path, e.Name())
			}
		}
	}
}

// parseSet parses "k=v,k2=v2".
func parseSet(s string) (map[string]string, error) {
	pairs := map[string]string{}
	if s == "" {
		return pairs, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-set %q: want k=v pairs", pair)
		}
		pairs[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return pairs, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printParams(e exp.Experiment) {
	fmt.Printf("%s — %s\n", e.Name(), e.Desc())
	for _, p := range e.Params() {
		fmt.Printf("  %-10s default %-8q %s\n", p.Name, p.Default, p.Help)
	}
}

func aliasHelp() string {
	var parts []string
	aliases := exp.Aliases()
	for _, a := range sortedKeys(aliases) {
		parts = append(parts, a+"→"+aliases[a])
	}
	return strings.Join(parts, ",")
}

func dumpArtifact(dir string, a exp.Artifact) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, a.Name)
	if err := os.WriteFile(path, []byte(a.Data), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dump:", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

// stopProfiles finalizes any active -cpuprofile/-memprofile/-trace
// captures. It is a package variable so the os.Exit paths (fatal, the
// sweep's failure exit) can flush profiles too — os.Exit skips defers,
// and a profile of a failing run is exactly the one worth keeping.
var stopProfiles = func() {}

// startProfiles begins the requested captures and returns the (idempotent)
// finisher: stop the CPU profile and trace, then snapshot the heap.
func startProfiles(cpuPath, memPath, tracePath string) func() {
	create := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		return f
	}
	var cpuF, traceF *os.File
	if cpuPath != "" {
		cpuF = create(cpuPath)
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			fatal("cpuprofile:", err)
		}
	}
	if tracePath != "" {
		traceF = create(tracePath)
		if err := trace.Start(traceF); err != nil {
			fatal("trace:", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
		if memPath != "" {
			f := create(memPath)
			runtime.GC() // up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("memprofile:", err)
			}
			f.Close()
		}
	}
}

func fatal(args ...any) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, args...)
	os.Exit(1)
}
