package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Axis is one swept parameter and its values.
type Axis struct {
	Name   string
	Values []string
}

// Grid is the cross product of its axes × seeds: the full parameter
// space one sweep covers.
type Grid struct {
	Axes  []Axis
	Seeds []int64
}

// ParseGrid parses "rate=24e6,48e6;rtt=20ms,50ms;seed=1,2" into a Grid.
// The "seed" axis is special-cased into Seeds; every other axis carries
// its values verbatim to the experiment's Params.
func ParseGrid(spec string) (Grid, error) {
	var g Grid
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, vals, ok := strings.Cut(part, "=")
		if !ok {
			return Grid{}, fmt.Errorf("exp: grid axis %q: want name=v1,v2,...", part)
		}
		name = strings.TrimSpace(name)
		if seen[name] {
			return Grid{}, fmt.Errorf("exp: duplicate grid axis %q", name)
		}
		seen[name] = true
		var values []string
		for _, v := range strings.Split(vals, ",") {
			if v = strings.TrimSpace(v); v != "" {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			return Grid{}, fmt.Errorf("exp: grid axis %q has no values", name)
		}
		if name == "seed" {
			for _, v := range values {
				s, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return Grid{}, fmt.Errorf("exp: grid seed %q: %v", v, err)
				}
				g.Seeds = append(g.Seeds, s)
			}
			continue
		}
		g.Axes = append(g.Axes, Axis{Name: name, Values: values})
	}
	return g, nil
}

// Size is the number of points (axes cross product × seeds).
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	seeds := len(g.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	return n * seeds
}

// Point is one grid cell: a seed plus one value per axis. Index is the
// point's position in the grid's deterministic enumeration order, which
// the sweep runner preserves in its output regardless of parallelism.
type Point struct {
	Index  int
	Seed   int64
	Params Params
}

// Points enumerates the grid: seeds outermost, then axes left to right
// (the last axis varies fastest). With no Seeds set, seed 1 is used.
func (g Grid) Points() []Point {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	out := make([]Point, 0, g.Size())
	idx := make([]int, len(g.Axes))
	for _, seed := range seeds {
		for i := range idx {
			idx[i] = 0
		}
		for {
			p := make(Params, len(g.Axes))
			for i, a := range g.Axes {
				p[a.Name] = a.Values[idx[i]]
			}
			out = append(out, Point{Index: len(out), Seed: seed, Params: p})
			// Odometer increment, last axis fastest.
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(g.Axes[i].Values) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return out
}

// Cache persists completed sweep cells so an interrupted or repeated
// sweep can skip the simulation entirely. internal/runstore implements
// it with a content-addressed on-disk store; the interface lives here so
// exp does not import the store (runstore imports exp for Result).
//
// Load reports a prior Result for the point (a hit must reproduce the
// fresh run byte-for-byte once emitted — same metrics, same report,
// same NaNs). Save records a successful result with its execution time;
// it must be safe to call from multiple goroutines and must not fail
// the sweep (persist errors are the Cache's to surface).
type Cache interface {
	Load(e Experiment, pt Point) (Result, bool)
	Save(e Experiment, pt Point, res Result, dur time.Duration)
}

// Options configures SweepOpts beyond the experiment and grid.
type Options struct {
	// Parallel is the worker goroutine count (min 1).
	Parallel int
	// Cache, when non-nil, receives every successfully computed cell
	// (checkpointing); failed cells are never cached.
	Cache Cache
	// Resume additionally loads cells from Cache instead of re-running
	// them. Kept separate from Cache so a sweep can checkpoint without
	// trusting prior contents (write-only mode recomputes everything).
	Resume bool
	// Progress, if set, is called after each finished point with the
	// cumulative done/cached counts.
	Progress func(done, total, cached int)
}

// Stats summarizes where a sweep's results came from.
type Stats struct {
	Total    int // grid points
	Cached   int // loaded from the cache (zero simulation)
	Executed int // actually simulated this run
}

// SweepOpts runs e at every grid point, fanning points across a pool of
// opt.Parallel worker goroutines. Each Run builds its own sim.Engine, so
// points are independent and the returned slice — ordered by Point.Index
// — is identical for any parallelism. A failing point gets its error
// recorded in Result.Err and the sweep continues; the first error is
// also returned after all points finish.
//
// With opt.Resume and a warm opt.Cache, completed cells load instead of
// executing — interrupting a 1000-cell grid loses only the cells in
// flight, and an unchanged re-run simulates nothing. Cached and fresh
// cells are indistinguishable in the returned slice, so the emitted
// JSON/CSV is byte-identical regardless of how many cells were resumed.
func SweepOpts(e Experiment, g Grid, opt Options) ([]Result, Stats, error) {
	if err := g.validate(e); err != nil {
		return nil, Stats{}, err
	}
	points := g.Points()
	st := Stats{Total: len(points)}
	parallel := opt.Parallel
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(points) {
		parallel = len(points)
	}
	results := make([]Result, len(points))
	activeWorkers.Add(int64(parallel))
	defer activeWorkers.Add(-int64(parallel))
	jobs := make(chan Point)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := range jobs {
				var (
					res    Result
					err    error
					cached bool
				)
				if opt.Cache != nil && opt.Resume {
					res, cached = opt.Cache.Load(e, pt)
				}
				if !cached {
					start := time.Now()
					res, err = runPoint(e, pt)
					if err != nil {
						res.Experiment = e.Name()
						res.Seed = pt.Seed
						res.Params = pt.Params
						res.Err = err.Error()
					} else if opt.Cache != nil {
						opt.Cache.Save(e, pt, res, time.Since(start))
					}
				}
				results[pt.Index] = res
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("exp: point %d (seed %d): %w", pt.Index, pt.Seed, err)
				}
				done++
				if cached {
					st.Cached++
				} else {
					st.Executed++
				}
				if opt.Progress != nil {
					opt.Progress(done, len(points), st.Cached)
				}
				mu.Unlock()
			}
		}()
	}
	for _, pt := range points {
		jobs <- pt
	}
	close(jobs)
	wg.Wait()
	return results, st, firstErr
}

// activeWorkers counts sweep worker goroutines currently running, across
// every concurrent SweepOpts call in the process. Sharded scenarios
// budget their own parallelism against it so sweep workers × engine
// shards never oversubscribes GOMAXPROCS.
var activeWorkers atomic.Int64

// ShardBudget reports how many engine shards a scenario running inside
// (or outside) a sweep should use: GOMAXPROCS divided by the active
// sweep worker count, floored at 1. Outside any sweep the full
// GOMAXPROCS is available. Every experiment and config sizes its shards
// this way; only tests pin a count (scenario.MeshOptions.Shards).
func ShardBudget() int {
	workers := activeWorkers.Load()
	if workers < 1 {
		workers = 1
	}
	budget := runtime.GOMAXPROCS(0) / int(workers)
	if budget < 1 {
		budget = 1
	}
	return budget
}

// validate rejects grid axes the experiment does not declare: a typo'd
// axis would otherwise run the whole sweep at defaults and produce N
// copies of the same configuration dressed up as a comparison.
func (g Grid) validate(e Experiment) error {
	declared := e.Params()
	names := make([]string, len(declared))
	ok := make(map[string]bool, len(declared))
	for i, pd := range declared {
		names[i] = pd.Name
		ok[pd.Name] = true
	}
	for _, a := range g.Axes {
		if !ok[a.Name] {
			return fmt.Errorf("exp: experiment %s has no param %q (declared: %s)",
				e.Name(), a.Name, strings.Join(names, ", "))
		}
	}
	return nil
}

// runPoint isolates one Run call so a panicking experiment fails its
// point instead of tearing down the whole sweep.
func runPoint(e Experiment, pt Point) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.Run(pt.Seed, pt.Params.Clone())
}
