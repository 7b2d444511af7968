package scenario_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bundler/internal/exp"
	"bundler/internal/scenario"
	"bundler/internal/sim"
)

// genMesh draws one mesh from seed over the whole option space the mesh
// family supports at test scale: 2–6 sites, hub or pairwise, 10–200
// Mbit/s access links, 2–80 ms RTT, 1–20 requests per ordered pair,
// bundled or not, SFQ re-keying on or off, no jitter or ordered or
// plain jitter, and no background users or 10²–10⁵ per site.
func genMesh(seed int64) scenario.MeshOptions {
	r := rand.New(rand.NewSource(seed))
	o := scenario.MeshOptions{
		Seed:       seed,
		Sites:      2 + r.Intn(5),
		Mode:       []string{"hub", "pairwise"}[r.Intn(2)],
		AccessRate: 10e6 + r.Float64()*190e6,
		RTT:        2*sim.Millisecond + sim.Time(r.Int63n(int64(78*sim.Millisecond))),
		Requests:   1 + r.Intn(20),
		Bundled:    r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		o.PerturbPeriod = 100*sim.Millisecond + sim.Time(r.Int63n(int64(900*sim.Millisecond)))
	}
	if r.Intn(3) != 0 {
		o.JitterMax = sim.Millisecond/2 + sim.Time(r.Int63n(int64(5*sim.Millisecond)))
		o.JitterOrdered = r.Intn(2) == 0
	}
	if r.Intn(2) == 0 {
		o.BgUsersPerSite = int(math.Pow(10, 2+3*r.Float64()))
	}
	return o
}

// meshRun builds and runs o and renders what the mesh experiment
// reports for it — table text, headline metrics, completion and
// background counts — as JSON. It fails t on the two invariants every
// mesh must hold whatever its shard count: no packet crosses bundles
// inside a physical box, and every pair finishes its requests.
func meshRun(t *testing.T, o scenario.MeshOptions) []byte {
	t.Helper()
	m := scenario.NewMesh(o)
	m.Run()
	if got := m.Misrouted(); got != 0 {
		t.Errorf("shards=%d: %d packets crossed bundles inside a physical box", o.Shards, got)
	}
	for _, pr := range m.Pairs {
		if pr.Rec.Completed < o.Requests {
			t.Errorf("shards=%d: pair s%d->s%d completed %d/%d requests",
				o.Shards, pr.Src, pr.Dst, pr.Rec.Completed, o.Requests)
		}
	}
	rows := []scenario.Fig9Result{scenario.SummarizeFCT("mesh", m.Aggregate())}
	var w strings.Builder
	scenario.WriteFCTRows(&w, rows)
	res := exp.Result{Experiment: "mesh", Seed: o.Seed, Report: w.String()}
	scenario.AddFCTRowMetrics(&res, rows)
	res.AddMetric("completed", float64(rows[0].Rec.Completed), "requests")
	res.AddMetric("bg-delivered", m.BgDeliveredBytes(), "bytes")
	res.AddMetric("bg-lost", m.BgLostBytes(), "bytes")
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzMeshEquivalence runs a generated mesh at shards 1, 2 and 3: the
// JSON output must be byte-equal, and every run must route every packet
// to its own bundle and complete every flow. Its seed corpus (seeds
// 1–16) runs in the ordinary test suite.
func FuzzMeshEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		o := genMesh(seed)
		desc := fmt.Sprintf("%+v", o)
		o.Shards = 1
		want := meshRun(t, o)
		for _, shards := range []int{2, 3} {
			o.Shards = shards
			if got := meshRun(t, o); string(got) != string(want) {
				t.Fatalf("%s\nshards=%d output diverges from shards=1:\n got: %s\nwant: %s", desc, shards, got, want)
			}
		}
		if t.Failed() {
			t.Logf("mesh: %s", desc)
		}
	})
}
