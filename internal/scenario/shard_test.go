package scenario_test

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"bundler/internal/exp"
	"bundler/internal/pkt"
	"bundler/internal/scenario"
	"bundler/internal/sim"
)

// meshOutput runs both variants of a mesh and renders everything the
// mesh experiment reports from them — table text, headline metrics,
// completion counts, every NaN — as JSON, the form two shard counts are
// compared in.
func meshOutput(t *testing.T, o scenario.MeshOptions) []byte {
	t.Helper()
	rows, _ := scenario.RunMesh(o)
	var w strings.Builder
	scenario.WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "mesh", Seed: o.Seed, Report: w.String()}
	scenario.AddFCTRowMetrics(&res, rows)
	for _, r := range rows {
		res.AddMetric(r.Label+"/completed", float64(r.Rec.Completed), "requests")
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardDeterminism is the sharded engine's hard gate: shards=N must
// be byte-identical to shards=1 — metrics, report text, every NaN — on
// both mesh modes. CI runs this under -race, so the multi-worker runs
// also prove the partition isolation claims.
func TestShardDeterminism(t *testing.T) {
	cases := []struct {
		name string
		opt  scenario.MeshOptions
	}{
		{"mesh hub", scenario.MeshOptions{Seed: 1, Sites: 4, Requests: 10,
			PerturbPeriod: 300 * sim.Millisecond, JitterMax: sim.Millisecond, JitterOrdered: true}},
		{"mesh pairwise", scenario.MeshOptions{Seed: 1, Sites: 4, Mode: "pairwise", Requests: 10,
			PerturbPeriod: 300 * sim.Millisecond, JitterOrdered: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, sharded := tc.opt, tc.opt
			serial.Shards, sharded.Shards = 1, 8
			want := meshOutput(t, serial)
			if got := meshOutput(t, sharded); string(got) != string(want) {
				t.Fatalf("shards=8 output diverges from shards=1:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestMeshPoolHandoffConservation proves the cross-partition pool
// hand-off actually happens on a hub mesh and conserves packets: every
// partition pool must satisfy Gets + TransferredIn ≥ Puts +
// TransferredOut (the slack is end-of-run in-flight state), hand-offs
// must flow in both directions through the core, and the global live
// count must stay bounded as in the invariant tests.
func TestMeshPoolHandoffConservation(t *testing.T) {
	liveBefore := pkt.Live()
	m := scenario.NewMesh(scenario.MeshOptions{
		Seed: 1, Sites: 4, Bundled: true, Requests: 20,
		PerturbPeriod: 300 * sim.Millisecond, Shards: 8,
	})
	m.Run()

	if m.World.Transferred() == 0 {
		t.Fatal("hub mesh ran without a single cross-partition hand-off")
	}
	var totalIn, totalOut int64
	for i, fab := range m.Fabs {
		s, in, out := fab.Pool.Stats()
		if s.Gets == 0 {
			t.Errorf("site %d pool minted no packets", i)
		}
		if out == 0 || in == 0 {
			t.Errorf("site %d pool never exchanged packets across the boundary (in %d, out %d)", i, in, out)
		}
		if live := s.Gets + in - s.Puts - out; live < 0 {
			t.Errorf("site %d pool conservation violated: gets %d + in %d < puts %d + out %d",
				i, s.Gets, in, s.Puts, out)
		}
		totalIn += in
		totalOut += out
	}
	// Site pools and the core pool are the only parties to hand-offs, so
	// the site totals must not exceed the barrier count on either side.
	if totalIn > m.World.Transferred() || totalOut > m.World.Transferred() {
		t.Errorf("site pools saw %d in / %d out, more than the %d barrier transfers",
			totalIn, totalOut, m.World.Transferred())
	}
	delta := pkt.Live() - liveBefore
	if delta < 0 || delta > 200_000 {
		t.Errorf("global live packet delta %d outside [0, 200000]", delta)
	}
}

// budgetProbe is a stub experiment that records the shard budget and the
// effective shard count a freshly built mesh would get, as observed from
// inside a sweep worker.
type budgetProbe struct {
	budgets chan int
	shards  chan int
}

func (budgetProbe) Name() string        { return "budget-probe" }
func (budgetProbe) Desc() string        { return "records ShardBudget inside sweep workers" }
func (budgetProbe) Params() []exp.Param { return nil }

func (b budgetProbe) Run(seed int64, p exp.Params) (exp.Result, error) {
	b.budgets <- exp.ShardBudget()
	m := scenario.NewMesh(scenario.MeshOptions{Seed: seed, Sites: 2, Requests: 1})
	b.shards <- m.Shards()
	return exp.Result{Experiment: "budget-probe", Seed: seed}, nil
}

// TestShardBudgetUnderSweep pins the oversubscription fix: a scenario
// auto-sizing its shards (shards=0) inside a sweep must divide
// GOMAXPROCS by the active worker count, so workers × shards never
// oversubscribes the machine. The combined case — sweep parallelism AND
// shard parallelism at once — is exactly what used to oversubscribe.
func TestShardBudgetUnderSweep(t *testing.T) {
	if got := exp.ShardBudget(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("outside any sweep ShardBudget() = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	const workers = 3
	probe := budgetProbe{budgets: make(chan int, workers), shards: make(chan int, workers)}
	g := exp.Grid{Seeds: []int64{1, 2, 3}}
	if _, _, err := exp.SweepOpts(probe, g, exp.Options{Parallel: workers}); err != nil {
		t.Fatal(err)
	}
	close(probe.budgets)
	close(probe.shards)
	wantBudget := runtime.GOMAXPROCS(0) / workers
	if wantBudget < 1 {
		wantBudget = 1
	}
	for b := range probe.budgets {
		if b != wantBudget {
			t.Errorf("inside %d-worker sweep ShardBudget() = %d, want %d", workers, b, wantBudget)
		}
	}
	// A 2-site hub mesh has 3 partitions; the effective shard count is
	// the budget clamped to that.
	wantShards := wantBudget
	if wantShards > 3 {
		wantShards = 3
	}
	for s := range probe.shards {
		if s != wantShards {
			t.Errorf("auto-sharded mesh inside sweep uses %d shards, want %d", s, wantShards)
		}
	}
}
