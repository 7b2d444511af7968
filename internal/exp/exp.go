// Package exp is the experiment harness: a common interface every
// scenario implements, a registry the CLIs derive their experiment lists
// from, and a parallel sweep runner that fans a parameter grid out across
// goroutines — one deterministic sim.Engine per run — collecting
// structured Results with JSON/CSV emitters built on internal/stats.
//
// Registering a new experiment makes it runnable from cmd/bundler-bench
// (and sweepable) with no CLI changes:
//
//	type myExp struct{}
//	func (myExp) Name() string { return "myexp" }
//	func (myExp) Desc() string { return "what it measures" }
//	func (myExp) Params() []exp.Param { ... }
//	func (myExp) Run(seed int64, p exp.Params) (exp.Result, error) { ... }
//	func init() { exp.Register(myExp{}) }
//
// Experiments also arrive at run time: internal/topo registers
// declarative config files through TryRegister / RegisterOrReplace, so
// a loaded config is indistinguishable from a compiled-in experiment.
// Params are strings in the repository's unit conventions (rates in
// bits/s float syntax, durations as Go strings like "50ms").
package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
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
// experiments parse them through a Binder. Missing keys mean "use the
// declared default".
type Params map[string]string

// Clone returns an independent copy.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Binder parses Params into typed values, remembering the first parse
// failure so experiments can check once after binding everything.
type Binder struct {
	decl []Param
	p    Params
	err  error
}

// Bind wraps p for typed access to the params decl declares. A key
// absent from p reads as its declared Default, parsed like any supplied
// value, so the default an experiment documents is the one it runs with;
// an empty Default is the type's zero value. Reading a name decl does
// not declare panics.
func Bind(decl []Param, p Params) *Binder { return &Binder{decl: decl, p: p} }

// Err reports the first parse failure, or nil.
func (b *Binder) Err() error { return b.err }

// bind resolves name to its supplied or default string and parses it.
func bind[T any](b *Binder, name, kind string, parse func(string) (T, error)) T {
	var zero T
	def := b.declared(name)
	v, ok := b.p[name]
	if !ok {
		if def == "" {
			return zero
		}
		v = def
	}
	out, err := parse(v)
	if err != nil {
		if b.err == nil {
			b.err = fmt.Errorf("exp: param %s=%q: bad %s: %v", name, v, kind, err)
		}
		return zero
	}
	return out
}

// declared returns name's declared default.
func (b *Binder) declared(name string) string {
	for _, d := range b.decl {
		if d.Name == name {
			return d.Default
		}
	}
	panic(fmt.Sprintf("exp: param %q read but not declared", name))
}

// String returns the named param.
func (b *Binder) String(name string) string {
	return bind(b, name, "string", func(v string) (string, error) { return v, nil })
}

// Int parses the named param as an integer.
func (b *Binder) Int(name string) int { return bind(b, name, "int", strconv.Atoi) }

// Float parses the named param as a float (so "96e6" works for rates).
func (b *Binder) Float(name string) float64 {
	return bind(b, name, "float", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// Bool parses the named param as a boolean.
func (b *Binder) Bool(name string) bool { return bind(b, name, "bool", strconv.ParseBool) }

// Duration parses the named param as a time.Duration ("50ms").
func (b *Binder) Duration(name string) time.Duration {
	return bind(b, name, "duration", time.ParseDuration)
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
