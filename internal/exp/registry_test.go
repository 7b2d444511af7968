package exp

import (
	"fmt"
	"strings"
	"testing"
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
	b := Bind(f.Params(), p)
	x := b.Float("x")
	if err := b.Err(); err != nil {
		return Result{}, err
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
	Register(fakeExp{name: "lookup-test"})
	RegisterAlias("lookup-alias", "lookup-test")

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

	defer func() {
		if recover() == nil {
			t.Fatal("alias to unknown canonical did not panic")
		}
	}()
	RegisterAlias("bad-alias", "no-such-experiment")
}

func TestHiddenExcludedFromNames(t *testing.T) {
	RegisterHidden(fakeExp{name: "hidden-test"})
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
		results, err := Sweep(e, g, parallel, nil)
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
	if _, err := Sweep(e, g, 1, nil); err == nil {
		t.Fatal("Sweep accepted an axis the experiment does not declare")
	}
	g = Grid{Axes: []Axis{{Name: "x", Values: []string{"1"}}}}
	if _, err := Sweep(e, g, 1, nil); err != nil {
		t.Fatalf("Sweep rejected a declared axis: %v", err)
	}
}

func TestRegisterCollidingWithAliasPanics(t *testing.T) {
	Register(fakeExp{name: "alias-collide-canonical"})
	RegisterAlias("alias-collide", "alias-collide-canonical")
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
	results, err := Sweep(e, g, 2, nil)
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
	results, err := Sweep(e, g, 1, nil)
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
}

func TestBinderErrors(t *testing.T) {
	decl := []Param{{Name: "n"}, {Name: "f"}, {Name: "missing", Default: "7"}, {Name: "frac"}}
	b := Bind(decl, Params{"n": "nope", "f": "1.5"})
	if got := b.Float("f"); got != 1.5 {
		t.Errorf("Float = %v", got)
	}
	if got := b.Int("missing"); got != 7 {
		t.Errorf("absent key = %v, want the declared default 7", got)
	}
	if got := b.Float("frac"); got != 0 || b.Err() != nil {
		t.Errorf("empty default = %v (err %v), want the zero value", got, b.Err())
	}
	_ = b.Int("n")
	if b.Err() == nil {
		t.Error("Binder swallowed a parse error")
	}
	defer func() {
		if recover() == nil {
			t.Error("reading an undeclared param did not panic")
		}
	}()
	b.Int("undeclared")
}

func TestTryRegisterReportsDuplicates(t *testing.T) {
	Register(fakeExp{name: "try-dup"})
	if err := TryRegister(fakeExp{name: "try-dup"}); err == nil {
		t.Fatal("TryRegister of a duplicate should error")
	}
	if err := TryRegister(fakeExp{name: "try-fresh"}); err != nil {
		t.Fatalf("TryRegister of a fresh name: %v", err)
	}
	if _, ok := Lookup("try-fresh"); !ok {
		t.Fatal("try-fresh not registered")
	}
}

// TestRegisterOrReplace pins the config-shadowing semantics: replacement
// keeps the canonical position, and alias names stay off limits.
func TestRegisterOrReplace(t *testing.T) {
	Register(fakeExp{name: "ror-a"})
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
	RegisterAlias("ror-alias", "ror-a")
	if _, err := RegisterOrReplace(fakeExp{name: "ror-alias"}); err == nil {
		t.Fatal("RegisterOrReplace onto an alias should error")
	}
}
