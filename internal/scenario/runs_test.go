package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bundler/internal/exp"
	"bundler/internal/pkt"
)

// runs is every simulation tier-1 makes of a registered experiment, at
// seed 1; the few tests that need a value no metric carries call a Run*
// function themselves. Each row is simulated once per test binary
// (shared), and the golden, the invariants, the table walk and the
// shape claims all read that one run. A row with a golden uses the
// golden's params; an experiment gets a second row only where a check
// needs a run the first row is not (a shape claim that does not hold at
// the golden's scale, a scheduler the golden does not use).
var runs = []runRow{
	{exp: "fig2", params: exp.Params{"dur": "10s"}, golden: "fig2"},
	{exp: "fig56", params: exp.Params{"dur": "5s"}, golden: "fig5"},
	// Multipath detection (ends disabled at 73 % out-of-order) and the
	// load balancer in front of a Sendbox.
	{exp: "fig7", params: exp.Params{"dur": "10s"}, golden: "fig7"},
	{exp: "fig9", params: exp.Params{"requests": "2000"}, golden: "fig9"},
	{exp: "fig10", golden: "fig10", slow: true},
	{exp: "fig11", params: exp.Params{"requests": "30000"}, slow: true},
	{exp: "fig12", slow: true},
	{exp: "fig13", params: exp.Params{"requests": "15000"}, slow: true},
	{exp: "fig14", params: exp.Params{"requests": "15000"}, slow: true},
	{exp: "fig15", params: exp.Params{"requests": "600"}},
	{exp: "fig16", params: exp.Params{"dur": "3s"}},
	{exp: "sec72", params: exp.Params{"requests": "4000", "dur": "10s"}, golden: "sec72"},
	{exp: "sec74", params: exp.Params{"requests": "15000"}, slow: true},
	{exp: "sec76", params: exp.Params{"dur": "3s"}, golden: "sec76"},
	// Large enough that the Sendbox's CoDel and FQ-CoDel each drop
	// hundreds of packets (Drops() 661 and 726; at 1 200 requests CoDel
	// drops 8), so the one CoDel law both run is pinned while dropping.
	{exp: "policies", params: exp.Params{"requests": "6000"}, golden: "policies"},
	// The fair-queueing ordering needs 8 000 requests per policy.
	{exp: "policies", params: exp.Params{"requests": "16000"}, slow: true},
	// Nested control loops: the only experiment that builds its topology
	// by hand.
	{exp: "hier", params: exp.Params{"dur": "10s"}, golden: "hier"},
	// The smallest mesh, with SFQ re-keying fast enough to fire several
	// times during the run: pins the multibundle fan-out and the
	// rehash-on-perturbation behavior byte for byte.
	{exp: "mesh", params: exp.Params{"sites": "2", "requests": "400", "perturb": "250ms"}, golden: "mesh2"},
	// The hidden single-point run every sweep fans out.
	{exp: "fct", params: exp.Params{"requests": "500"}, golden: "fct"},
	// The one scheduler whose constructor needs a clock.
	{exp: "fct", params: exp.Params{"sched": "pie", "requests": "50"}},
	{exp: "ablations", params: exp.Params{"requests": "600"}, slow: true},
}

type runRow struct {
	exp    string     // registry name
	params exp.Params // as passed to Run
	golden string     // testdata/<golden>.golden.json pins the row byte for byte; "" if none
	slow   bool       // more than a second of CPU: skipped under -short
}

// sharedRun is one row's simulation, kept for the life of the test
// binary.
type sharedRun struct {
	exp.Result
	err  error
	live int64 // pkt.Live() delta across the run
}

var memo = map[int]*sharedRun{}

// shared returns the run of the row naming experiment name with params,
// simulating it on first use. Runs are sequential: pkt.Live() is
// process-global, so a concurrent simulation would blur every live
// delta.
func shared(t *testing.T, name string, params exp.Params) *sharedRun {
	t.Helper()
	i := slices.IndexFunc(runs, func(r runRow) bool {
		return r.exp == name && maps.Equal(r.params, params)
	})
	if i < 0 {
		t.Fatalf("%s %v is not a row of runs", name, params)
	}
	if runs[i].slow && testing.Short() {
		t.Skipf("%s %v is slow; skipped under -short", name, params)
	}
	s, ok := memo[i]
	if !ok {
		e, found := exp.Lookup(name)
		if !found {
			t.Fatalf("experiment %q not registered", name)
		}
		before := pkt.Live()
		res, err := e.Run(1, params)
		s = &sharedRun{Result: res, err: err, live: pkt.Live() - before}
		memo[i] = s
	}
	if s.err != nil {
		t.Fatalf("%s %v: %v", name, params, s.err)
	}
	return s
}

// metric reads one of the run's metrics. A missing or NaN metric fails
// the test: a comparison with NaN is false, so it would pass any check.
func (s *sharedRun) metric(t *testing.T, name string) float64 {
	t.Helper()
	v := s.Metric(name)
	if math.IsNaN(v) {
		t.Fatalf("%s: metric %q missing or NaN", s.Experiment, name)
	}
	return v
}

// inFlightBound caps how far pkt.Live() may grow across one run: packets
// still queued or propagating when the engines stop are abandoned, not
// released, so the count grows by end-of-run in-flight state — far below
// the packets sent. Beyond it, release paths are leaking.
const inFlightBound = 200_000

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/scenario -run TestGolden -update
//
// Regenerate ONLY when an intentional behavior change alters experiment
// output; the whole point of these files is that refactors (pooling,
// scheduling changes, ...) must reproduce them byte for byte.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGolden asserts that experiment output is byte-identical to the
// snapshots under testdata/. Everything in a Result derives from virtual
// time and the seeded RNG, so any diff means the simulation's behavior
// changed — never environment noise.
func TestGolden(t *testing.T) {
	for _, row := range runs {
		if row.golden == "" {
			continue
		}
		t.Run(row.golden, func(t *testing.T) {
			got, err := json.MarshalIndent(shared(t, row.exp, row.params).Result, "", "  ")
			if err != nil {
				t.Fatalf("marshal result: %v", err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", row.golden+".golden.json")
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
					row.exp, path, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestInvariants checks, on every row, the properties optimization must
// never bend:
//
//   - packet conservation: every packet handed out by the pool is either
//     released exactly once (delivery, drop) or still in flight when the
//     engine stops. Over-release panics inside pkt.Put; the live-count
//     bound catches leaks, and a negative delta means something released
//     packets it did not own.
//   - qdisc byte/packet accounting never goes negative: asserted on
//     every dequeue inside netem.Link (a panic fails the run here).
//   - the engine clock is monotone: asserted on every event dispatch
//     inside sim.Engine.step (likewise a panic).
//   - results are well-formed: error-free and JSON-marshalable.
func TestInvariants(t *testing.T) {
	for _, d := range experiments {
		t.Run(d.Name, func(t *testing.T) {
			for _, row := range runs {
				if row.exp != d.Name {
					continue
				}
				s := shared(t, row.exp, row.params)
				if _, err := json.Marshal(s.Result); err != nil {
					t.Errorf("%v: result not JSON-marshalable: %v", row.params, err)
				}
				if s.live < 0 {
					t.Errorf("%v: live packet count fell by %d: a component released packets it did not own", row.params, -s.live)
				}
				if s.live > inFlightBound {
					t.Errorf("%v: live packet count grew by %d (> %d): release paths are leaking", row.params, s.live, inFlightBound)
				}
			}
		})
	}
}
