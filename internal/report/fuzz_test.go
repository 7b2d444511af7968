package report

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bundler/internal/exp"
)

// FuzzDiffFiles: bundler-report's inputs are files anyone can hand it.
// Whatever the bytes, DiffFiles returns an error or a report, never
// panics; a file that loads, diffed against itself, has every cell
// compared, and the report renders both ways.
func FuzzDiffFiles(f *testing.F) {
	cells, err := json.Marshal([]exp.Result{
		cell("fct", 1, exp.Params{"rate": "24e6"}, map[string]float64{"completed": 300, "fct-p99": 81.5, "nan-probe": math.NaN()}, "tbl\n"),
		cell("fct", 1, exp.Params{"rate": "24e6"}, map[string]float64{"completed": 299}, "dup\n"),
		{Experiment: "fig9", Seed: 2, Err: "boom"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cells)
	f.Add(cells[:len(cells)/2])
	f.Add([]byte("\n[ ]"))
	f.Add([]byte(`  {"note":1}`))
	f.Add([]byte(`[{"metrics":[{"name":"x","value":"NaN"}]}]`))
	f.Add([]byte("null"))
	path := filepath.Join(f.TempDir(), "results.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := DiffFiles(path, path, Options{})
		if err != nil {
			return
		}
		var res []exp.Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("DiffFiles loaded bytes that do not decode: %v", err)
		}
		if r.Compared != len(res) {
			t.Fatalf("a file diffed against itself compared %d of its %d cells", r.Compared, len(res))
		}
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := r.WriteJSON(io.Discard); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
	})
}
