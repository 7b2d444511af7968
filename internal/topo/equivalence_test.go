package topo

import (
	"bytes"
	"encoding/json"
	"testing"

	"bundler/internal/exp"
	_ "bundler/internal/scenario" // registers the hand-coded experiments
)

// TestFig9ConfigEquivalence is the tentpole guarantee of the config
// layer: the shipped fig9 config compiles into *exactly* the simulation
// the hand-coded fig9 experiment wires — same engine event sequence,
// same RNG draws, same report and metrics — so the two Results marshal
// byte-identically. Any divergence means the compiler's defaults or
// wiring order drifted from internal/scenario.
func TestFig9ConfigEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 equivalence runs eight FCT simulations; skipped under -short")
	}
	cfg, err := Load("../../examples/configs/fig9.json")
	if err != nil {
		t.Fatal(err)
	}
	hand, ok := exp.Lookup("fig9")
	if !ok {
		t.Fatal("built-in fig9 not registered")
	}

	const seed = 1
	params := exp.Params{"requests": "2000"}
	want, err := hand.Run(seed, params.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Experiment(cfg).Run(seed, params.Clone())
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("config fig9 diverged from hand-coded fig9.\nhand-coded:\n%s\n\nconfig:\n%s",
			wantJSON, gotJSON)
	}
}

// TestHierConfigEquivalence holds §9's nesting declaration to the
// built-in: examples/configs/hier.json, whose departments attach to the
// institute host, simulates exactly what the hier experiment wires
// through scenario.Fabric.AddSiteIn, so each department's bulk goodput
// is the same float.
func TestHierConfigEquivalence(t *testing.T) {
	cfg, err := Load("../../examples/configs/hier.json")
	if err != nil {
		t.Fatal(err)
	}
	hand, ok := exp.Lookup("hier")
	if !ok {
		t.Fatal("built-in hier not registered")
	}
	params := exp.Params{"dur": "10s"}
	want, err := hand.Run(1, params.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Experiment(cfg).Run(1, params.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"deptA", "deptB"} {
		w, g := want.Metric(d+"-Mbps"), got.Metric(cfg.Name+"/bulk-"+d+"/Mbps")
		if g != w {
			t.Errorf("%s: config %v Mbit/s, built-in %v", d, g, w)
		}
	}
}
