package scenario

import (
	"bytes"
	"testing"

	"bundler/internal/exp"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// TestMeshInvariants is the multibundle fan-out table test: every mesh
// shape must conserve packets (pool live-count bounded), classify every
// data packet to its own bundle (zero MultiSendbox misroutes — a
// misroute is cross-pair leakage through one physical box), and complete
// every pair's workload. Perturbation and jitter are on where noted so
// the SFQ re-key and ordered-jitter paths run under the checks.
func TestMeshInvariants(t *testing.T) {
	cases := []struct {
		name string
		opt  MeshOptions
	}{
		{"2-site hub bundled", MeshOptions{
			Sites: 2, Bundled: true, Requests: 60, PerturbPeriod: 300 * sim.Millisecond}},
		{"4-site hub bundled perturb+jitter", MeshOptions{
			Sites: 4, Bundled: true, Requests: 40, PerturbPeriod: 250 * sim.Millisecond,
			JitterMax: 2 * sim.Millisecond, JitterOrdered: true}},
		{"4-site hub status quo", MeshOptions{Sites: 4, Requests: 40}},
		{"8-site pairwise bundled", MeshOptions{
			Sites: 8, Mode: "pairwise", Bundled: true, Requests: 50,
			PerturbPeriod: 200 * sim.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Seed = 1
			liveBefore := pkt.Live()
			m := NewMesh(tc.opt)
			m.Run()

			if got := m.Misrouted(); got != 0 {
				t.Errorf("%d packets crossed bundles inside a physical box", got)
			}
			wantPairs := tc.opt.Sites * (tc.opt.Sites - 1)
			if len(m.Pairs) != wantPairs {
				t.Fatalf("built %d pairs, want %d", len(m.Pairs), wantPairs)
			}
			total := 0
			for _, pr := range m.Pairs {
				if pr.Rec.Completed < tc.opt.Requests {
					t.Errorf("pair s%d->s%d completed %d/%d requests",
						pr.Src, pr.Dst, pr.Rec.Completed, tc.opt.Requests)
				}
				total += pr.Rec.Completed
			}
			if agg := m.Aggregate(); agg.Completed != total {
				t.Errorf("aggregate recorder counts %d flows, pairs sum to %d", agg.Completed, total)
			}
			if tc.opt.Bundled {
				if len(m.Multis) != tc.opt.Sites {
					t.Fatalf("%d physical boxes, want one per site (%d)", len(m.Multis), tc.opt.Sites)
				}
				for _, pr := range m.Pairs {
					if pr.Site.SB.AcksMatched == 0 {
						t.Errorf("bundle s%d->s%d matched no congestion ACKs: its inner loop never ran",
							pr.Src, pr.Dst)
					}
				}
			}

			// Conservation, as in TestInvariants: the live count may grow
			// by end-of-run in-flight state, never shrink, never leak big.
			delta := pkt.Live() - liveBefore
			if delta < 0 {
				t.Errorf("live packet count fell by %d: something released packets it did not own", -delta)
			}
			if delta > inFlightBound {
				t.Errorf("live packet count grew by %d (> %d): release paths are leaking", delta, inFlightBound)
			}
		})
	}
}

// TestMeshSweepDeterminism runs the registered mesh experiment over a
// small grid at 8 sites with 1 and 8 workers: byte-identical JSON is the
// sweep engine's contract, and the mesh — hundreds of engines, pools,
// and control loops per cell — is its heaviest client.
func TestMeshSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh determinism sweep is slow; skipped under -short")
	}
	mesh, ok := exp.Lookup("mesh")
	if !ok {
		t.Fatal("mesh experiment not registered")
	}
	g, err := exp.ParseGrid("sites=8;requests=15;perturb=300ms;seed=1,2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) []byte {
		results, _, err := exp.SweepOpts(mesh, g, exp.Options{Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel %d: %v", parallel, err)
		}
		var buf bytes.Buffer
		if err := exp.WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	concurrent := run(8)
	if !bytes.Equal(serial, concurrent) {
		t.Fatal("mesh sweep output differs between -parallel 1 and -parallel 8")
	}
}
