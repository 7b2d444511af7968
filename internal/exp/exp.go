// Package exp is the experiment harness: a common interface every
// scenario implements, a registry the CLIs derive their experiment lists
// from, and a parallel sweep runner that fans a parameter grid out across
// goroutines — one deterministic sim.Engine per run — collecting
// structured Results with JSON/CSV emitters built on internal/stats.
//
// An experiment is a value, not a type: a Def names it, declares its
// params and carries the body that runs it, and New puts the one
// concrete Experiment behind it. Registering one makes it runnable from
// cmd/bundler-bench (and sweepable) with no CLI changes; in
// internal/scenario that is one row of the table in experiments.go:
//
//	{Name: "myexp", Desc: "what it measures",
//		Params: []exp.Param{{Name: "dur", Default: "30s", Help: "run duration"}},
//		Run: func(r *exp.Run) error {
//			dur := r.Duration("dur")            // dur=abc ends the run here, as its error
//			fmt.Fprintf(r, "ran for %s\n", dur) // r is the report
//			r.AddMetric("answer", 42, "")       // and the Result: Experiment, Seed, Params set
//			return nil
//		}},
//
// Experiments also arrive at run time: internal/topo registers
// declarative config files through RegisterOrReplace, so a loaded
// config is indistinguishable from a compiled-in experiment.
// Params are strings in the repository's unit conventions (rates in
// bits/s float syntax, durations as Go strings like "50ms").
package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"bundler/internal/stats"
)

// Param declares one tunable of an experiment, for -help text and
// sweep-grid validation.
type Param struct {
	Name    string
	Default string
	Help    string
}

// Params carries the parameter values for one run as name → string;
// a Def's body parses them through its Run's getters. Missing keys mean
// "use the declared default".
type Params map[string]string

// Clone returns an independent copy.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Run is one execution of a Def, as its body sees it: the Result under
// construction (Experiment, Seed and Params already set), typed getters
// for the declared params, and — as an io.Writer — the text report.
type Run struct {
	Result
	decl   []Param
	report strings.Builder
}

// Write appends to the report.
func (r *Run) Write(p []byte) (int, error) { return r.report.Write(p) }

// badParam carries a getter's parse failure up to the wrapper's Run.
type badParam struct{ err error }

// param resolves name to its supplied or default string and parses it.
// A key absent from Params reads as its declared Default, parsed like
// any supplied value, so the default an experiment documents is the one
// it runs with; an empty Default is the type's zero value. A value that
// does not parse ends the run: the body never computes on a zero it did
// not ask for, and the wrapper returns the failure as Run's error.
// Reading a name the Def does not declare panics.
func param[T any](r *Run, name, kind string, parse func(string) (T, error)) T {
	def := r.declared(name)
	v, ok := r.Params[name]
	if !ok {
		if def == "" {
			var zero T
			return zero
		}
		v = def
	}
	out, err := parse(v)
	if err != nil {
		panic(badParam{fmt.Errorf("exp: param %s=%q: bad %s: %v", name, v, kind, err)})
	}
	return out
}

// declared returns name's declared default.
func (r *Run) declared(name string) string {
	for _, d := range r.decl {
		if d.Name == name {
			return d.Default
		}
	}
	panic(fmt.Sprintf("exp: param %q read but not declared", name))
}

// String returns the named param.
func (r *Run) String(name string) string {
	return param(r, name, "string", func(v string) (string, error) { return v, nil })
}

// Int parses the named param as an integer.
func (r *Run) Int(name string) int { return param(r, name, "int", strconv.Atoi) }

// Float parses the named param as a float (so "96e6" works for rates).
func (r *Run) Float(name string) float64 {
	return param(r, name, "float", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// Bool parses the named param as a boolean.
func (r *Run) Bool(name string) bool { return param(r, name, "bool", strconv.ParseBool) }

// Duration parses the named param as a time.Duration ("50ms").
func (r *Run) Duration(name string) time.Duration {
	return param(r, name, "duration", time.ParseDuration)
}

// Metric is one named scalar an experiment reports.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// MarshalJSON emits non-finite values as null instead of failing the
// whole document (encoding/json rejects NaN/Inf). Scale-starved runs
// legitimately produce NaN quantiles — e.g. a latency probe that never
// completed — and one such metric must not make a Result, a sweep
// file, or a golden snapshot unserializable. Finite values go through
// the standard encoder, so their formatting is byte-identical to a
// plain struct marshal.
func (m Metric) MarshalJSON() ([]byte, error) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return json.Marshal(struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
			Unit  string   `json:"unit,omitempty"`
		}{m.Name, nil, m.Unit})
	}
	type noMethods Metric // drop MarshalJSON to avoid recursion
	return json.Marshal(noMethods(m))
}

// UnmarshalJSON is the inverse of the NaN-as-null encoding: a null value
// restores NaN, so a Result loaded from a run-store manifest re-emits
// byte-identically to the fresh run that produced it. Without this, a
// cached NaN metric would decode to 0 and a resumed sweep's output would
// silently differ from an uninterrupted one.
func (m *Metric) UnmarshalJSON(data []byte) error {
	var raw struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	m.Name, m.Unit = raw.Name, raw.Unit
	if raw.Value == nil {
		m.Value = math.NaN()
	} else {
		m.Value = *raw.Value
	}
	return nil
}

// Artifact is a named blob (CSV trace) an experiment produced. Data is
// excluded from JSON results; the CLIs write it to the -dump directory.
type Artifact struct {
	Name string `json:"name"`
	Data string `json:"-"`
}

// Result is the structured record of one experiment run. Everything in
// it derives from the simulation alone (no wall-clock), so a fixed seed
// and params produce byte-identical Results regardless of scheduling.
type Result struct {
	Experiment string                   `json:"experiment"`
	Seed       int64                    `json:"seed"`
	Params     Params                   `json:"params,omitempty"`
	Metrics    []Metric                 `json:"metrics,omitempty"`
	Summaries  map[string]stats.Summary `json:"summaries,omitempty"`
	Report     string                   `json:"report,omitempty"`
	Artifacts  []Artifact               `json:"artifacts,omitempty"`
	// Err records a per-point failure during a sweep (the sweep keeps
	// going and reports the first error separately).
	Err string `json:"err,omitempty"`
}

// AddMetric appends a metric.
func (r *Result) AddMetric(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Metric returns the named metric's value, or NaN when absent.
func (r *Result) Metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// Experiment is one reproducible scenario: a parameterized function from
// (seed, params) to a structured Result. Run must be self-contained —
// build its own sim.Engine(s), share no mutable state — so the sweep
// runner can execute many instances concurrently.
type Experiment interface {
	Name() string
	Desc() string
	Params() []Param
	Run(seed int64, p Params) (Result, error)
}

// Def is an experiment written as a value: what the registry, the CLIs
// and the run store need to know about it, plus the body that runs it.
// The interface above stays (a struct cannot have a field and a method
// of one name); New puts the value behind it.
type Def struct {
	Name, Desc string
	Params     []Param
	// Meta is extra key/value context (paper section, figure) recorded
	// into run-store manifests — see Metadater.
	Meta map[string]string
	// Hidden keeps the experiment out of All, Names and the CLIs' "all"
	// mode: a building block (like the single-point "fct" run) that is
	// looked up by name or swept.
	Hidden bool
	// Aliases are further names Lookup resolves to this experiment (the
	// paper plots the one accuracy run as Figures 5 and 6, so "fig5" and
	// "fig6" both name "fig56").
	Aliases []string
	// Run is the body: it reads its params through r's getters, writes
	// the report to r and adds metrics, summaries and artifacts to
	// r.Result.
	Run func(r *Run) error
}

// defExp is the one concrete Experiment outside internal/topo.
type defExp struct{ d Def }

// New returns the Experiment d describes. Its Run does once what every
// body would otherwise repeat: it hands the body a *Run with
// Result.Experiment, Seed and Params filled in, returns the first param
// that failed to parse as the error, and stores what the body wrote as
// Result.Report.
func New(d Def) Experiment { return &defExp{d} }

func (e *defExp) Name() string                { return e.d.Name }
func (e *defExp) Desc() string                { return e.d.Desc }
func (e *defExp) Params() []Param             { return e.d.Params }
func (e *defExp) Metadata() map[string]string { return e.d.Meta }

func (e *defExp) Run(seed int64, p Params) (res Result, err error) {
	r := &Run{Result: Result{Experiment: e.d.Name, Seed: seed, Params: p}, decl: e.d.Params}
	defer func() {
		switch x := recover().(type) {
		case nil:
		case badParam:
			res, err = Result{}, x.err
		default:
			panic(x)
		}
	}()
	if err := e.d.Run(r); err != nil {
		return Result{}, err
	}
	r.Report = r.report.String()
	return r.Result, nil
}

// SourceHasher is an optional Experiment extension: a stable content
// hash of whatever defines the experiment's behavior outside the binary
// (a declarative config's canonical bytes, say). Run stores key cells by
// it, so editing a config invalidates exactly the cells it changes while
// cosmetic edits — comments, key order, whitespace — keep the cache
// warm. Experiments that don't implement it are keyed by the binary
// fingerprint instead: any rebuild invalidates their cells.
type SourceHasher interface {
	// SourceHash returns a scheme-prefixed digest ("topo:<hex>"), or ""
	// to fall back to the binary fingerprint.
	SourceHash() string
}

// Metadater is an optional Experiment extension: extra key/value context
// (paper section, source file, ...) recorded into run-store manifests
// alongside the result. Purely informational — never part of the run
// key.
type Metadater interface {
	Metadata() map[string]string
}
