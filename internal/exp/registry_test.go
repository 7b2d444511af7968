package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"bundler/internal/stats"
)

// fakeExp is a deterministic stand-in experiment: its result is a pure
// function of (seed, params), with optional failure injection.
type fakeExp struct {
	name string
	fail func(p Params) error
}

func (f fakeExp) Name() string { return f.name }
func (f fakeExp) Desc() string { return "fake experiment " + f.name }
func (f fakeExp) Params() []Param {
	return []Param{{Name: "x", Default: "1", Help: "an input"}}
}

func (f fakeExp) Run(seed int64, p Params) (Result, error) {
	if f.fail != nil {
		if err := f.fail(p); err != nil {
			return Result{}, err
		}
	}
	x := 1.0
	if v, ok := p["x"]; ok {
		var err error
		if x, err = strconv.ParseFloat(v, 64); err != nil {
			return Result{}, err
		}
	}
	res := Result{Experiment: f.name, Seed: seed, Params: p}
	res.AddMetric("y", x*float64(seed), "")
	return res, nil
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fakeExp{name: "dup-test"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(fakeExp{name: "dup-test"})
}

func TestLookupAndAliases(t *testing.T) {
	Register(New(Def{Name: "lookup-test", Aliases: []string{"lookup-alias"}}))

	e, ok := Lookup("lookup-test")
	if !ok || e.Name() != "lookup-test" {
		t.Fatalf("Lookup(lookup-test) = %v, %v", e, ok)
	}
	e, ok = Lookup("lookup-alias")
	if !ok || e.Name() != "lookup-test" {
		t.Fatalf("alias lookup = %v, %v; want lookup-test", e, ok)
	}
	if _, ok := Lookup("no-such-experiment"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if got := Aliases()["lookup-alias"]; got != "lookup-test" {
		t.Fatalf("Aliases()[lookup-alias] = %q, want lookup-test", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("an alias naming an existing experiment did not panic")
		}
		if _, ok := Lookup("bad-alias-exp"); ok {
			t.Fatal("an experiment whose alias collided was registered anyway")
		}
	}()
	Register(New(Def{Name: "bad-alias-exp", Aliases: []string{"lookup-test"}}))
}

func TestHiddenExcludedFromNames(t *testing.T) {
	Register(New(Def{Name: "hidden-test", Hidden: true}))
	for _, n := range Names() {
		if n == "hidden-test" {
			t.Fatal("hidden experiment appears in Names()")
		}
	}
	if _, ok := Lookup("hidden-test"); !ok {
		t.Fatal("hidden experiment not found by Lookup")
	}
}

func TestNamesPreserveRegistrationOrder(t *testing.T) {
	Register(fakeExp{name: "order-a"})
	Register(fakeExp{name: "order-b"})
	names := strings.Join(Names(), ",")
	if !strings.Contains(names, "order-a,order-b") {
		t.Fatalf("registration order not preserved: %s", names)
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("rate=24e6,48e6;rtt=20ms;seed=1,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Axes) != 2 || g.Axes[0].Name != "rate" || len(g.Axes[0].Values) != 2 {
		t.Fatalf("bad axes: %+v", g.Axes)
	}
	if len(g.Seeds) != 2 || g.Seeds[0] != 1 || g.Seeds[1] != 2 {
		t.Fatalf("bad seeds: %v", g.Seeds)
	}
	if g.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", g.Size())
	}
	pts := g.Points()
	if len(pts) != 4 {
		t.Fatalf("Points() = %d, want 4", len(pts))
	}
	// Seeds outermost, last axis fastest; indices must be sequential.
	want := []struct {
		seed int64
		rate string
	}{{1, "24e6"}, {1, "48e6"}, {2, "24e6"}, {2, "48e6"}}
	for i, pt := range pts {
		if pt.Index != i {
			t.Errorf("point %d has Index %d", i, pt.Index)
		}
		if pt.Seed != want[i].seed || pt.Params["rate"] != want[i].rate {
			t.Errorf("point %d = seed %d rate %s, want seed %d rate %s",
				i, pt.Seed, pt.Params["rate"], want[i].seed, want[i].rate)
		}
		if pt.Params["rtt"] != "20ms" {
			t.Errorf("point %d rtt = %q", i, pt.Params["rtt"])
		}
	}

	if _, err := ParseGrid("noequals"); err == nil {
		t.Error("ParseGrid accepted axis without values")
	}
	if _, err := ParseGrid("seed=notanint"); err == nil {
		t.Error("ParseGrid accepted non-integer seed")
	}
	if _, err := ParseGrid("rate=24e6;rate=96e6"); err == nil {
		t.Error("ParseGrid accepted a duplicate axis")
	}
}

func TestSweepOrderIndependentOfParallelism(t *testing.T) {
	e := fakeExp{name: "sweep-order-test"}
	g := Grid{
		Axes:  []Axis{{Name: "x", Values: []string{"1", "2", "3", "4", "5"}}},
		Seeds: []int64{3, 7},
	}
	run := func(parallel int) string {
		results, _, err := SweepOpts(e, g, Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		var w strings.Builder
		if err := WriteJSON(&w, results); err != nil {
			t.Fatal(err)
		}
		return w.String()
	}
	serial := run(1)
	for _, par := range []int{2, 8, 100} {
		if got := run(par); got != serial {
			t.Fatalf("parallel %d sweep differs from serial:\n%s\nvs\n%s", par, got, serial)
		}
	}
}

func TestSweepRejectsUndeclaredAxis(t *testing.T) {
	e := fakeExp{name: "sweep-validate-test"}
	g := Grid{Axes: []Axis{{Name: "bogus", Values: []string{"1"}}}}
	if _, _, err := SweepOpts(e, g, Options{Parallel: 1}); err == nil {
		t.Fatal("Sweep accepted an axis the experiment does not declare")
	}
	g = Grid{Axes: []Axis{{Name: "x", Values: []string{"1"}}}}
	if _, _, err := SweepOpts(e, g, Options{Parallel: 1}); err != nil {
		t.Fatalf("Sweep rejected a declared axis: %v", err)
	}
}

func TestRegisterCollidingWithAliasPanics(t *testing.T) {
	Register(New(Def{Name: "alias-collide-canonical", Aliases: []string{"alias-collide"}}))
	defer func() {
		if recover() == nil {
			t.Fatal("Register over an existing alias did not panic")
		}
	}()
	Register(fakeExp{name: "alias-collide"})
}

func TestSweepRecordsPerPointErrors(t *testing.T) {
	e := fakeExp{name: "sweep-err-test", fail: func(p Params) error {
		if p["x"] == "2" {
			return fmt.Errorf("boom")
		}
		if p["x"] == "3" {
			panic("kaboom")
		}
		return nil
	}}
	g := Grid{Axes: []Axis{{Name: "x", Values: []string{"1", "2", "3"}}}}
	results, _, err := SweepOpts(e, g, Options{Parallel: 2})
	if err == nil {
		t.Fatal("Sweep did not report the failing point")
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Err != "" || results[0].Metric("y") != 1 {
		t.Errorf("healthy point polluted: %+v", results[0])
	}
	if results[1].Err != "boom" {
		t.Errorf("error point Err = %q, want boom", results[1].Err)
	}
	if !strings.Contains(results[2].Err, "kaboom") {
		t.Errorf("panicking point Err = %q, want panic captured", results[2].Err)
	}
}

func TestEmitCSV(t *testing.T) {
	e := fakeExp{name: "csv-test"}
	g := Grid{Axes: []Axis{{Name: "x", Values: []string{"2", "4"}}}, Seeds: []int64{5}}
	results, _, err := SweepOpts(e, g, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	if err := WriteCSV(&w, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(w.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV rows = %d, want header + 2", len(lines))
	}
	if lines[0] != "experiment,seed,x,y,err" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "csv-test,5,2,10," {
		t.Errorf("row = %q", lines[1])
	}

	// Six params and seven metric/summary columns: a header written in
	// map order instead of sorted order cannot match this by luck.
	wide := Result{Experiment: "wide", Seed: 1,
		Params:    Params{"sched": "sfq", "rtt": "20ms", "rate": "48e6", "mode": "bundler", "load": "0.8", "alg": "copa"},
		Summaries: map[string]stats.Summary{"fct": {N: 100, Mean: 12.5, P50: 10, P90: 20, P99: 40}}}
	wide.AddMetric("util", 0.9, "")
	wide.AddMetric("drops", 3, "")
	w.Reset()
	if err := WriteCSV(&w, []Result{wide}); err != nil {
		t.Fatal(err)
	}
	want := "experiment,seed,alg,load,mode,rate,rtt,sched,drops,fct.mean,fct.n,fct.p50,fct.p90,fct.p99,util,err\n" +
		"wide,1,copa,0.8,bundler,48e6,20ms,sfq,3,12.5,100,10,20,40,0.9,\n"
	if w.String() != want {
		t.Errorf("wide CSV =\n%s\nwant\n%s", w.String(), want)
	}
}

// TestDefRun pins what New's wrapper does for every body: Experiment,
// Seed and Params pre-filled, typed getters with declared defaults, the
// report collected from what the body wrote, and a value that does not
// parse ending the run with an error before the body goes on.
func TestDefRun(t *testing.T) {
	reached := false
	e := New(Def{
		Name: "def-run",
		Params: []Param{{Name: "n"}, {Name: "f"}, {Name: "missing", Default: "7"}, {Name: "frac"},
			{Name: "on", Default: "true"}, {Name: "d", Default: "50ms"}, {Name: "s", Default: "auto"}},
		Meta: map[string]string{"paper": "test"},
		Run: func(r *Run) error {
			if got := r.Float("f"); got != 1.5 {
				t.Errorf("Float = %v", got)
			}
			if got := r.Int("missing"); got != 7 {
				t.Errorf("absent key = %v, want the declared default 7", got)
			}
			if got := r.Float("frac"); got != 0 {
				t.Errorf("empty default = %v, want the zero value", got)
			}
			if !r.Bool("on") || r.Duration("d") != 50*time.Millisecond || r.String("s") != "auto" {
				t.Error("bool/duration/string defaults misread")
			}
			fmt.Fprintf(r, "n=%d\n", r.Int("n"))
			reached = true
			r.AddMetric("m", 1, "")
			return nil
		},
	})
	res, err := e.Run(3, Params{"n": "4", "f": "1.5"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "def-run" || res.Seed != 3 || res.Params["n"] != "4" || res.Report != "n=4\n" || res.Metric("m") != 1 {
		t.Errorf("wrapper did not fill the result: %+v", res)
	}
	if md, ok := e.(Metadater); !ok || md.Metadata()["paper"] != "test" {
		t.Error("Def.Meta not served through Metadater")
	}

	reached = false
	res, err = e.Run(3, Params{"n": "nope", "f": "1.5"})
	if err == nil || !strings.Contains(err.Error(), `n="nope"`) {
		t.Errorf("bad int: err = %v, want it to name the param", err)
	}
	if reached || res.Report != "" {
		t.Error("the body ran on past a param that did not parse")
	}

	bodyErr := New(Def{Name: "def-err", Run: func(*Run) error { return fmt.Errorf("body failed") }})
	if _, err := bodyErr.Run(1, nil); err == nil || err.Error() != "body failed" {
		t.Errorf("body error = %v, want it returned as is", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("reading an undeclared param did not panic")
		}
	}()
	New(Def{Name: "def-undeclared", Run: func(r *Run) error { r.Int("undeclared"); return nil }}).Run(1, nil)
}

// TestRegisterOrReplace pins the config-shadowing semantics: replacement
// keeps the canonical position, and alias names stay off limits.
func TestRegisterOrReplace(t *testing.T) {
	Register(New(Def{Name: "ror-a", Aliases: []string{"ror-alias"}}))
	Register(fakeExp{name: "ror-b"})
	replaced, err := RegisterOrReplace(fakeExp{name: "ror-a", fail: func(Params) error {
		return fmt.Errorf("replacement marker")
	}})
	if err != nil || !replaced {
		t.Fatalf("RegisterOrReplace existing: replaced=%v err=%v", replaced, err)
	}
	e, ok := Lookup("ror-a")
	if !ok {
		t.Fatal("ror-a vanished")
	}
	if _, rerr := e.Run(1, nil); rerr == nil || !strings.Contains(rerr.Error(), "replacement marker") {
		t.Fatalf("lookup did not return the replacement: %v", rerr)
	}
	// Canonical order: ror-a must still precede ror-b.
	ia, ib := -1, -1
	for i, n := range Names() {
		switch n {
		case "ror-a":
			ia = i
		case "ror-b":
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("replacement moved ror-a in canonical order (a=%d, b=%d)", ia, ib)
	}
	replaced, err = RegisterOrReplace(fakeExp{name: "ror-new"})
	if err != nil || replaced {
		t.Fatalf("RegisterOrReplace fresh: replaced=%v err=%v", replaced, err)
	}
	if _, err := RegisterOrReplace(fakeExp{name: "ror-alias"}); err == nil {
		t.Fatal("RegisterOrReplace onto an alias should error")
	}
	// The alias belongs to the slot: it now reaches the replacement.
	if e, ok := Lookup("ror-alias"); !ok {
		t.Fatal("ror-alias vanished with the experiment it named")
	} else if _, rerr := e.Run(1, nil); rerr == nil || !strings.Contains(rerr.Error(), "replacement marker") {
		t.Fatalf("alias did not follow the replacement: %v", rerr)
	}
}
