package clock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simPackages are the directories under internal/ whose code runs on an
// injected clock.Clock: the engine's virtual clock in experiments, or a
// clock.Wall that must stay swappable with it in the pilot. A wall-clock
// call on a path only clock.Wall runs changes no golden and no digest,
// so this test is the one place that seam is checked.
var simPackages = []string{"bundle", "tcp", "ccalg", "qdisc", "netem", "fluid",
	"udpapp", "workload", "scenario", "sim", "sim/shard", "pilot"}

// wallCalls read or schedule against the process clock; seededRand build
// a local seeded stream, and every other math/rand function draws from
// the process-global one.
var (
	wallCalls = map[string]bool{"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
		"Tick": true, "NewTimer": true, "NewTicker": true, "Since": true, "Until": true}
	seededRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}
)

// wallClockCalls returns the calls in f to a wallCalls function of time
// or to a global math/rand function, under whatever names f imports the
// two packages as. Taking time.Now as a value (an injectable default) is
// not a call and stays legal.
func wallClockCalls(f *ast.File) []*ast.SelectorExpr {
	imported := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = path
	}
	var found []*ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Obj is set only when a local declaration shadows the import.
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil {
			path := imported[pkg.Name]
			if path == "time" && wallCalls[sel.Sel.Name] || path == "math/rand" && !seededRand[sel.Sel.Name] {
				found = append(found, sel)
			}
		}
		return true
	})
	return found
}

// probes: each line ending in "// want" must be flagged, no other line.
var probes = []string{`package bundle

import (
	"math/rand"
	"time"
)

func violations() {
	_ = time.Now()                     // want
	time.Sleep(time.Millisecond)       // want
	<-time.After(time.Millisecond)     // want
	t := time.NewTimer(time.Second)    // want
	tk := time.NewTicker(time.Second)  // want
	_ = time.Since(time.Time{})        // want
	_ = rand.Intn(4)                   // want
	_ = rand.Float64()                 // want
	rand.Shuffle(0, func(i, j int) {}) // want
	t.Stop()
	tk.Stop()
}

func legal() {
	r := rand.New(rand.NewSource(1))
	_ = r.Intn(4)
	var d time.Duration = time.Second
	_ = d * 2
	now := time.Now
	_ = now
	rand := r
	_ = rand.Intn(4)
}
`, `package tcp

import t "time"

func horizon() <-chan t.Time { return t.After(t.Second) } // want
`}

func TestNoWallClockInSimPackages(t *testing.T) {
	for i, src := range probes {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "probe.go", src, 0)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		flagged := map[int]bool{}
		for _, sel := range wallClockCalls(f) {
			flagged[fset.Position(sel.Pos()).Line] = true
		}
		for n, line := range strings.Split(src, "\n") {
			if want := strings.HasSuffix(line, "// want"); flagged[n+1] != want {
				t.Errorf("probe %d line %d %q: flagged=%v, want %v", i, n+1, strings.TrimSpace(line), flagged[n+1], want)
			}
		}
	}

	for _, dir := range simPackages {
		paths, _ := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if len(paths) == 0 {
			t.Errorf("internal/%s has no Go files: update simPackages", dir)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, filepath.Join("internal", dir, filepath.Base(path)), src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range wallClockCalls(f) {
				t.Errorf("%s: %s.%s in a simulation-facing package: take time and randomness from the injected clock.Clock",
					fset.Position(sel.Pos()), sel.X.(*ast.Ident).Name, sel.Sel.Name)
			}
		}
	}
}
