package scenario_test

import (
	"math"
	"runtime"
	"testing"

	"bundler/internal/scenario"
	"bundler/internal/sim"
)

// TestMeshEmulatedUsersComplete is the scale acceptance check: a mesh
// carrying 10⁵ emulated background users per site still completes its
// foreground workload (at the load the headroom guarantees), the
// background aggregates actually saturate their access links, and every
// recorder runs in bounded sketch mode.
func TestMeshEmulatedUsersComplete(t *testing.T) {
	opt := scenario.MeshOptions{
		Seed:           1,
		Sites:          2,
		Mode:           "pairwise",
		Requests:       30,
		BgUsersPerSite: 100000,
	}
	m := scenario.NewMesh(opt)
	stop := m.Run()

	want := opt.Sites * (opt.Sites - 1) * opt.Requests
	agg := m.Aggregate()
	if agg.Completed < want {
		t.Fatalf("completed %d/%d foreground requests by %v: background users starved the packet path",
			agg.Completed, want, stop)
	}
	if !agg.Slowdowns.Sketched() {
		t.Error("emulated-user mesh did not switch its recorders to sketch mode")
	}
	for _, pr := range m.Pairs {
		if !pr.Rec.Slowdowns.Sketched() {
			t.Fatalf("pair s%d->s%d recorder is not sketched", pr.Src, pr.Dst)
		}
	}

	// Each site's aggregate should have pushed roughly its fluid share
	// (access rate minus foreground headroom and the foreground's own
	// throughput) for the whole run.
	if len(m.Fluids) != opt.Sites {
		t.Fatalf("%d fluid aggregates, want one per site (%d)", len(m.Fluids), opt.Sites)
	}
	secs := stop.Seconds()
	perSite := m.BgDeliveredBytes() * 8 / float64(opt.Sites) / secs
	share := 96e6 * 0.9 // below (1-headroom) to leave room for the foreground's cut
	if perSite < 0.5*share {
		t.Errorf("background goodput %.1f Mbit/s per site, want ≥ %.1f (the aggregates are not loading the links)",
			perSite/1e6, 0.5*share/1e6)
	}
	if m.BgLostBytes() == 0 {
		t.Error("background AIMD never saw loss: the virtual buffers are not the bottleneck")
	}
}

// TestMeshSketchMatchesExact runs the identical mesh twice — exact
// recorders vs sketched ones — and requires every reported quantile to
// agree within the sketch's 1 % accuracy contract. Same seed, same
// engine schedule: the flows are byte-identical, only the stats differ.
func TestMeshSketchMatchesExact(t *testing.T) {
	run := func(sketch bool) *scenario.Mesh {
		m := scenario.NewMesh(scenario.MeshOptions{
			Seed: 7, Sites: 2, Mode: "pairwise", Requests: 80, Sketch: sketch})
		m.Run()
		return m
	}
	exact := run(false).Aggregate()
	sketched := run(true).Aggregate()

	if exact.Completed != sketched.Completed {
		t.Fatalf("sketch mode changed the simulation: %d vs %d completions", sketched.Completed, exact.Completed)
	}
	if !sketched.Slowdowns.Sketched() || exact.Slowdowns.Sketched() {
		t.Fatal("sketch flag did not select recorder modes")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		e, s := exact.Slowdowns.Quantile(q), sketched.Slowdowns.Quantile(q)
		if rel := math.Abs(s-e) / e; rel > 0.01 {
			t.Errorf("slowdown q=%.2f: sketch %.6g vs exact %.6g (relative error %.4f > 1%%)", q, s, e, rel)
		}
		e, s = exact.FCTms.Quantile(q), sketched.FCTms.Quantile(q)
		if rel := math.Abs(s-e) / e; rel > 0.01 {
			t.Errorf("fct q=%.2f: sketch %.6g vs exact %.6g ms (relative error %.4f > 1%%)", q, s, e, rel)
		}
	}
}

// TestMeshFluidShardInvariant: the fluid tickers live on their sites'
// partition engines, so background load must not break the mesh's
// shards-never-change-results contract — including across the hub
// topology's cross-partition edges.
func TestMeshFluidShardInvariant(t *testing.T) {
	run := func(shards int) (med, p99, bg, lost float64, completed int) {
		m := scenario.NewMesh(scenario.MeshOptions{
			Seed: 3, Sites: 3, Mode: "hub", Requests: 20,
			BgUsersPerSite: 1000, Bundled: true, Shards: shards,
			Horizon: 60 * sim.Second})
		m.Run()
		agg := m.Aggregate()
		return agg.Slowdowns.Median(), agg.Slowdowns.Quantile(0.99),
			m.BgDeliveredBytes(), m.BgLostBytes(), agg.Completed
	}
	m1, p1, b1, l1, c1 := run(1)
	m3, p3, b3, l3, c3 := run(3)
	if m1 != m3 || p1 != p3 || b1 != b3 || l1 != l3 || c1 != c3 {
		t.Fatalf("shard count changed results: shards=1 (%g, %g, %g, %g, %d) vs shards=3 (%g, %g, %g, %g, %d)",
			m1, p1, b1, l1, c1, m3, p3, b3, l3, c3)
	}
	if b1 == 0 {
		t.Fatal("background aggregates delivered nothing")
	}
}

// TestMeshFluidMemoryFlat pins the fluid model's O(1)-state-per-user
// contract: the same 2-site mesh under a 10× step in emulated users —
// identical foreground workload, packet count and sketch recorders —
// must allocate the same memory, within 15 % (noise in what the runtime
// allocates beside the run, not a change of complexity class: per-user
// state shows up as a multiple, not a percentage).
func TestMeshFluidMemoryFlat(t *testing.T) {
	allocated := func(users int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scenario.RunMesh(scenario.MeshOptions{
			Seed: 1, Sites: 2, Mode: "pairwise", Requests: 30, BgUsersPerSite: users})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	lo, hi := allocated(10_000), allocated(100_000)
	if float64(hi) > 1.15*float64(lo) {
		t.Fatalf("memory grows with the emulated user count: %d B at 10k users/site, %d B at 100k (%+.1f%%, limit +15%%)",
			lo, hi, (float64(hi)/float64(lo)-1)*100)
	}
	t.Logf("allocated %d B at 10k users/site, %d B at 100k", lo, hi)
}
