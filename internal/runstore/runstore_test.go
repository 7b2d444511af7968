package runstore

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bundler/internal/exp"
	"bundler/internal/stats"
)

// TestKeyHashGolden pins the key serialization scheme: the same cell
// must hash identically across processes, machines, and builds, because
// resumed sweeps and CI jobs compute keys in different processes than
// the ones that stored them. If this test fails, the scheme changed —
// which silently invalidates every existing store — so the change must
// be deliberate (and keyScheme should be bumped with it).
func TestKeyHashGolden(t *testing.T) {
	k := Key{
		Experiment: "fct",
		Seed:       7,
		Params:     map[string]string{"rate": "24e6", "rtt": "20ms", "requests": "300"},
		Source:     "code:testfp",
	}
	const want = "a98e5c233db10c78e4606d08ed110753a3be0907f758a20247fd6264d42b5b0d"
	if got := k.Hash(); got != want {
		t.Fatalf("key hash changed: got %s want %s\n"+
			"(a deliberate scheme change must bump keyScheme and update this golden)", got, want)
	}
}

// TestKeyHashFieldOrderings verifies the hash is a pure function of key
// *content*: params built in any insertion order hash identically, and
// every semantic field participates.
func TestKeyHashFieldOrderings(t *testing.T) {
	base := Key{Experiment: "fct", Seed: 1,
		Params: map[string]string{"a": "1", "b": "2", "c": "3"}, Source: "code:x"}

	reordered := Key{Experiment: "fct", Seed: 1, Params: map[string]string{}, Source: "code:x"}
	for _, k := range []string{"c", "a", "b"} { // reverse-ish insertion order
		reordered.Params[k] = base.Params[k]
	}
	if base.Hash() != reordered.Hash() {
		t.Fatal("param insertion order changed the key hash")
	}

	mutations := map[string]Key{
		"experiment": {Experiment: "fig9", Seed: 1, Params: base.Params, Source: "code:x"},
		"seed":       {Experiment: "fct", Seed: 2, Params: base.Params, Source: "code:x"},
		"source":     {Experiment: "fct", Seed: 1, Params: base.Params, Source: "code:y"},
		"param val":  {Experiment: "fct", Seed: 1, Params: map[string]string{"a": "9", "b": "2", "c": "3"}, Source: "code:x"},
		"param key":  {Experiment: "fct", Seed: 1, Params: map[string]string{"a": "1", "b": "2", "d": "3"}, Source: "code:x"},
		"param gone": {Experiment: "fct", Seed: 1, Params: map[string]string{"a": "1", "b": "2"}, Source: "code:x"},
	}
	for what, k := range mutations {
		if k.Hash() == base.Hash() {
			t.Errorf("changing %s did not change the key hash", what)
		}
	}
}

// TestKeyHashNoDelimiterCollision guards the canonical serialization
// against value-smuggling: params whose names/values contain the
// serializer's own delimiters must not collide.
func TestKeyHashNoDelimiterCollision(t *testing.T) {
	a := Key{Experiment: "e", Params: map[string]string{"a": "1\nparam.\"b\"=\"2\""}, Source: "s"}
	b := Key{Experiment: "e", Params: map[string]string{"a": "1", "b": "2"}, Source: "s"}
	if a.Hash() == b.Hash() {
		t.Fatal("delimiter characters in a param value collided with a separate param")
	}
}

// fakeExp is a deterministic experiment with every Result feature the
// store must round-trip: NaN metrics, NaN summaries, artifacts.
type fakeExp struct {
	name string
	runs *atomic.Int64 // counts Run invocations, from every sweep worker, when non-nil
	fail bool
}

func (f fakeExp) Name() string { return f.name }
func (f fakeExp) Desc() string { return "store round-trip fixture" }
func (f fakeExp) Params() []exp.Param {
	return []exp.Param{{Name: "x", Default: "1"}, {Name: "y", Default: "2"}}
}
func (f fakeExp) Metadata() map[string]string { return map[string]string{"paper": "test"} }
func (f fakeExp) Run(seed int64, p exp.Params) (exp.Result, error) {
	if f.runs != nil {
		f.runs.Add(1)
	}
	if f.fail {
		return exp.Result{}, fmt.Errorf("deliberate failure")
	}
	var empty stats.Sample
	res := exp.Result{
		Experiment: f.name, Seed: seed, Params: p,
		Report:    fmt.Sprintf("seed=%d x=%s\ntable row\n", seed, p["x"]),
		Summaries: map[string]stats.Summary{"empty": empty.Summarize()},
		Artifacts: []exp.Artifact{{Name: "trace.csv", Data: "t,v\n0,1\n"}},
	}
	res.AddMetric("value", float64(seed)*1.5, "")
	res.AddMetric("nan-probe", math.NaN(), "ms")
	return res, nil
}

func grid(t *testing.T) exp.Grid {
	t.Helper()
	g, err := exp.ParseGrid("x=1,2;y=3,4;seed=1,2")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func emit(t *testing.T, results []exp.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := exp.WriteJSON(&b, results); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResumeByteIdentical is the acceptance criterion in miniature: a
// sweep resumed from a partially-populated store must emit bytes
// identical to an uninterrupted run, and a cache-warm re-run must
// execute zero cells.
func TestResumeByteIdentical(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := grid(t)

	var freshRuns atomic.Int64
	fresh, st, err := exp.SweepOpts(fakeExp{name: "rt", runs: &freshRuns}, g, exp.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != g.Size() || freshRuns.Load() != int64(g.Size()) {
		t.Fatalf("fresh sweep: executed %d of %d", st.Executed, g.Size())
	}
	want := emit(t, fresh)

	// "Interrupt" by pre-populating only half the cells.
	half := g.Points()[:g.Size()/2]
	for _, pt := range half {
		res, _ := fakeExp{name: "rt"}.Run(pt.Seed, pt.Params.Clone())
		s.Save(fakeExp{name: "rt"}, pt, res, time.Millisecond)
	}

	var resumedRuns atomic.Int64
	resumed, st2, err := exp.SweepOpts(fakeExp{name: "rt", runs: &resumedRuns}, g,
		exp.Options{Parallel: 4, Cache: s, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != len(half) || st2.Executed != g.Size()-len(half) {
		t.Fatalf("resume stats: %+v, want %d cached %d executed", st2, len(half), g.Size()-len(half))
	}
	if resumedRuns.Load() != int64(g.Size()-len(half)) {
		t.Fatalf("resume executed %d cells, want %d", resumedRuns.Load(), g.Size()-len(half))
	}
	if got := emit(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from uninterrupted run:\nfresh:\n%s\nresumed:\n%s", want, got)
	}

	// Cache-warm re-run: zero simulation cells.
	var warmRuns atomic.Int64
	warm, st3, err := exp.SweepOpts(fakeExp{name: "rt", runs: &warmRuns}, g,
		exp.Options{Parallel: 4, Cache: s, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Executed != 0 || st3.Cached != g.Size() || warmRuns.Load() != 0 {
		t.Fatalf("warm re-run simulated cells: %+v (%d Run calls)", st3, warmRuns.Load())
	}
	if got := emit(t, warm); !bytes.Equal(got, want) {
		t.Fatal("cache-warm output differs from uninterrupted run")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRoundTripArtifacts verifies artifact data — excluded from
// Result JSON — survives the manifest round trip.
func TestStoreRoundTripArtifacts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := fakeExp{name: "art"}
	pt := exp.Point{Seed: 3, Params: exp.Params{"x": "9"}}
	res, _ := e.Run(pt.Seed, pt.Params.Clone())
	s.Save(e, pt, res, time.Millisecond)
	got, ok := s.Load(e, pt)
	if !ok {
		t.Fatal("stored cell not found")
	}
	if len(got.Artifacts) != 1 || got.Artifacts[0].Data != "t,v\n0,1\n" {
		t.Fatalf("artifact data lost in round trip: %+v", got.Artifacts)
	}
	m, ok := s.Get(KeyFor(e, pt))
	if !ok {
		t.Fatal("manifest missing")
	}
	if m.Meta["paper"] != "test" || !strings.Contains(m.Meta["desc"], "fixture") {
		t.Fatalf("manifest metadata not recorded: %+v", m.Meta)
	}
	if m.DurationMS <= 0 {
		t.Fatalf("manifest duration not recorded: %v", m.DurationMS)
	}
}

// TestCorruptManifestIsMiss: a truncated or tampered cell must read as
// a cache miss (recompute), never as bad data.
func TestCorruptManifestIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := fakeExp{name: "corrupt"}
	pt := exp.Point{Seed: 1, Params: exp.Params{"x": "1"}}
	res, _ := e.Run(1, pt.Params.Clone())
	s.Save(e, pt, res, time.Millisecond)

	hash := KeyFor(e, pt).Hash()
	path := filepath.Join(dir, hash[:2], hash+".json")
	if err := os.WriteFile(path, []byte(`{"hash":"not-the-hash"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(e, pt); ok {
		t.Fatal("corrupt manifest served as a cache hit")
	}
}

// TestFailuresNotCached: error cells must not poison the store.
func TestFailuresNotCached(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := grid(t)
	_, st, err := exp.SweepOpts(fakeExp{name: "boom", fail: true}, g,
		exp.Options{Parallel: 2, Cache: s, Resume: true})
	if err == nil {
		t.Fatal("expected sweep error")
	}
	if st.Cached != 0 {
		t.Fatalf("failing sweep reported cached cells: %+v", st)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("store holds %d cells after an all-failure sweep", n)
	}
}

// TestPrune evicts by manifest age.
func TestPrune(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := fakeExp{name: "prune"}
	old := exp.Point{Seed: 1, Params: exp.Params{"x": "1"}}
	res, _ := e.Run(1, old.Params.Clone())
	if err := s.Put(KeyFor(e, old), &Manifest{
		Created: time.Now().UTC().Add(-48 * time.Hour), Result: res,
	}); err != nil {
		t.Fatal(err)
	}
	fresh := exp.Point{Seed: 2, Params: exp.Params{"x": "2"}}
	res2, _ := e.Run(2, fresh.Params.Clone())
	s.Save(e, fresh, res2, time.Millisecond)

	removed, err := s.Prune(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("pruned %d cells, want 1", removed)
	}
	if _, ok := s.Load(e, old); ok {
		t.Fatal("stale cell survived pruning")
	}
	if _, ok := s.Load(e, fresh); !ok {
		t.Fatal("fresh cell evicted")
	}
}

// TestPruneEvictsOrphanedTempFiles: a kill between CreateTemp and
// Rename leaves a ".<hash>.tmp*" file; Prune must evict it by age even
// though no manifest reader ever touches it.
func TestPruneEvictsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(sub, ".abcdef.tmp12345")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	// An unreadable-but-stale manifest must go too (mtime fallback).
	garbled := filepath.Join(sub, "abcdef.json")
	if err := os.WriteFile(garbled, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(garbled, stale, stale); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Prune(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("pruned %d files, want 2 (orphan tmp + garbled manifest)", removed)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived pruning")
	}
	if _, err := os.Stat(garbled); !os.IsNotExist(err) {
		t.Fatal("garbled manifest survived pruning")
	}
}

// TestPruneCutoffInjectedClock pins the store's injected time source
// and checks the age-cutoff arithmetic exactly, without sleeping or
// touching the process clock: a cell strictly older than maxAge is
// evicted, a cell exactly at the cutoff survives.
func TestPruneCutoffInjectedClock(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	e := fakeExp{name: "prunecutoff"}

	older := exp.Point{Seed: 1, Params: exp.Params{"x": "old"}}
	res, _ := e.Run(1, older.Params.Clone())
	s.now = func() time.Time { return base }
	s.Save(e, older, res, time.Millisecond)

	edge := exp.Point{Seed: 2, Params: exp.Params{"x": "edge"}}
	res2, _ := e.Run(2, edge.Params.Clone())
	s.now = func() time.Time { return base.Add(time.Hour) }
	s.Save(e, edge, res2, time.Millisecond)

	// Save must stamp Created from the injected clock, not the wall.
	if m, ok := s.Get(KeyFor(e, edge)); !ok || !m.Created.Equal(base.Add(time.Hour)) {
		t.Fatalf("Created stamp not from injected clock: %+v", m)
	}

	// At base+25h with maxAge 24h the cutoff is base+1h: the first cell
	// (age 25h) goes, the second (exactly at the cutoff) stays.
	s.now = func() time.Time { return base.Add(25 * time.Hour) }
	removed, err := s.Prune(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("pruned %d cells, want 1", removed)
	}
	if _, ok := s.Load(e, older); ok {
		t.Fatal("cell older than maxAge survived")
	}
	if _, ok := s.Load(e, edge); !ok {
		t.Fatal("cell exactly at the cutoff was evicted")
	}
}

// TestFingerprintStable: within one process the fingerprint is constant
// and well-formed — it participates in every code-keyed run key.
func TestFingerprintStable(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a == "" || a != b {
		t.Fatalf("fingerprint unstable: %q vs %q", a, b)
	}
}

// TestFingerprintIsContentHash: under `go test` the executable is the
// test binary, so the non-override path must produce a plain 16-hex
// content digest — never a pid- or wall-time-derived value (which would
// disown the warm cache on every run).
func TestFingerprintIsContentHash(t *testing.T) {
	if os.Getenv("BUNDLER_FINGERPRINT") != "" {
		t.Skip("fingerprint overridden in the environment")
	}
	fp := Fingerprint()
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q is not a 16-hex content digest", fp)
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Fatalf("fingerprint %q contains non-hex %q", fp, c)
		}
	}
}

// TestHashFile pins the digest the fingerprint chain is built on:
// content-determined, content-sensitive, and absent for unreadable
// paths.
func TestHashFile(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("same bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("same bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	ha, ok := hashFile(a)
	if !ok || len(ha) != 16 {
		t.Fatalf("hashFile(a) = %q, %v", ha, ok)
	}
	hb, _ := hashFile(b)
	if ha != hb {
		t.Fatalf("identical content hashed differently: %q vs %q", ha, hb)
	}
	if err := os.WriteFile(b, []byte("other bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if hb2, _ := hashFile(b); hb2 == ha {
		t.Fatal("different content produced the same digest")
	}
	if _, ok := hashFile(filepath.Join(dir, "missing")); ok {
		t.Fatal("hashFile of a missing file reported success")
	}
}
