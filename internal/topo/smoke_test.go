package topo

import (
	"path/filepath"
	"testing"

	"bundler/internal/sim"
)

// TestExampleConfigsSmoke parses, validates, and actually runs every
// shipped config at a short virtual horizon — the CI job that keeps
// examples/configs/ from rotting. Completion is not required (the
// horizon cap cuts the runs short); what must hold is that every config
// compiles against the current scenario machinery and produces a report.
func TestExampleConfigsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("config smoke runs every shipped scenario; skipped under -short")
	}
	for _, path := range exampleConfigs(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			cfg, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runConfig(cfg, 1, nil, 5*sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report == "" {
				t.Fatal("smoke run produced an empty report")
			}
			if res.Experiment != cfg.Name {
				t.Fatalf("result experiment %q, config name %q", res.Experiment, cfg.Name)
			}
			if len(res.Metrics) == 0 {
				t.Fatal("smoke run produced no metrics")
			}
		})
	}
}
