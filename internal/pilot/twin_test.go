package pilot

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bundler/internal/exp"
)

// update regenerates testdata/twin.golden.json instead of comparing
// against it:
//
//	go test ./internal/pilot -run TestTwinGolden -update
//
// Regenerate only for an intentional change of simulated behaviour.
var update = flag.Bool("update", false, "rewrite testdata/twin.golden.json")

// TestTwinGolden pins the simulated twin byte for byte. The twin is the
// yardstick the real-clock pilot is measured against (the bundler-report
// tolerance gate, the benchmark's twin FCT ratio), so a refactor of the
// pilot's wiring must leave it exactly where it was.
func TestTwinGolden(t *testing.T) {
	var results []exp.Result
	for _, cfg := range []Config{{Seed: 1}, {Seed: 2, Rate: 48e6, Requests: 120}} {
		res, err := RunTwin(cfg)
		if err != nil {
			t.Fatalf("RunTwin(%+v): %v", cfg, err)
		}
		results = append(results, res)
	}
	got, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "twin.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("twin output diverged from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
