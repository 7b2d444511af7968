package scenario_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bundler/internal/exp"
	_ "bundler/internal/scenario" // registers every experiment
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/scenario -run TestGolden -update
//
// Regenerate ONLY when an intentional behavior change alters experiment
// output; the whole point of these files is that refactors (pooling,
// scheduling changes, ...) must reproduce them byte for byte.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases pins the experiments the paper's headline claims rest on.
// Scales are reduced (goldens must be cheap enough to run on every test
// invocation) but large enough that every mechanism — pacing, epoch
// matching, loss recovery, mode switching — is exercised.
var goldenCases = []struct {
	name   string // golden file stem
	exp    string // registry name (aliases allowed)
	seed   int64
	params exp.Params
	slow   bool // skipped under -short
}{
	{name: "fig9", exp: "fig9", seed: 1, params: exp.Params{"requests": "2000"}},
	{name: "fig5", exp: "fig5", seed: 1, params: exp.Params{"dur": "5s"}},
	{name: "fig10", exp: "fig10", seed: 1, slow: true},
	// The smallest mesh, with SFQ re-keying fast enough to fire several
	// times during the run: pins the multibundle fan-out and the
	// rehash-on-perturbation behavior byte for byte.
	{name: "mesh2", exp: "mesh", seed: 1, params: exp.Params{
		"sites": "2", "requests": "400", "perturb": "250ms"}},
	// Multipath detection (ends disabled at 73 % out-of-order) and the
	// load balancer in front of a Sendbox.
	{name: "fig7", exp: "fig7", seed: 1, params: exp.Params{"dur": "10s"}},
	{name: "sec76", exp: "sec76", seed: 1, params: exp.Params{"dur": "3s"}},
	{name: "sec72", exp: "sec72", seed: 1, params: exp.Params{
		"requests": "4000", "dur": "10s"}},
	// Large enough that the Sendbox's CoDel and FQ-CoDel each drop
	// hundreds of packets (Drops() 661 and 726; at 1 200 requests CoDel
	// drops 8), so the one CoDel law both run is pinned while dropping.
	{name: "policies", exp: "policies", seed: 1, params: exp.Params{"requests": "6000"}},
	// The three below were generated at the commit before the experiment
	// adapters became table rows, and committed with that change
	// unregenerated: nested control loops (the only experiment that
	// builds its topology by hand), the hidden single-point run every
	// sweep fans out, and the with/without-Bundler scaffold at its
	// simplest.
	{name: "hier", exp: "hier", seed: 1, params: exp.Params{"dur": "10s"}},
	{name: "fct", exp: "fct", seed: 1, params: exp.Params{"requests": "500"}},
	{name: "fig2", exp: "fig2", seed: 1, params: exp.Params{"dur": "10s"}},
}

// TestGolden asserts that experiment output is byte-identical to the
// snapshots under testdata/. Everything in a Result derives from virtual
// time and the seeded RNG, so any diff means the simulation's behavior
// changed — never environment noise.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skipf("%s golden is slow; skipped under -short", tc.name)
			}
			e, ok := exp.Lookup(tc.exp)
			if !ok {
				t.Fatalf("experiment %q not registered", tc.exp)
			}
			res, err := e.Run(tc.seed, tc.params)
			if err != nil {
				t.Fatalf("%s: %v", tc.exp, err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatalf("marshal result: %v", err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s output diverged from %s.\n"+
					"If this change is intentional, regenerate with:\n"+
					"  go test ./internal/scenario -run TestGolden -update\n"+
					"got %d bytes, want %d bytes; first divergence at byte %d",
					tc.exp, path, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
