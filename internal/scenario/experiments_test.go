package scenario

import (
	"testing"

	"bundler/internal/exp"
	"bundler/internal/pkt"
)

// tinyScale shrinks every scale knob an experiment may declare, so the
// whole table runs in a few seconds.
var tinyScale = exp.Params{"requests": "40", "dur": "1s", "sites": "2"}

// TestExperimentTable walks every row of the table, hidden ones
// included: the row is registered under its name and aliases, a run
// reports under that name, and a value that does not parse is rejected
// for each declared param before a single packet is minted.
func TestExperimentTable(t *testing.T) {
	for _, d := range experiments {
		t.Run(d.Name, func(t *testing.T) {
			e, ok := exp.Lookup(d.Name)
			if !ok || e.Name() != d.Name {
				t.Fatalf("Lookup(%s) = %v, %v", d.Name, e, ok)
			}
			for _, a := range d.Aliases {
				if ae, ok := exp.Lookup(a); !ok || ae != e {
					t.Errorf("alias %s does not resolve to %s", a, d.Name)
				}
			}
			listed := false
			for _, le := range exp.All() {
				listed = listed || le == e
			}
			if listed == d.Hidden {
				t.Errorf("Hidden=%v but listed in All()=%v", d.Hidden, listed)
			}

			for _, pd := range d.Params {
				before := pkt.Stats().Gets
				if _, err := e.Run(1, exp.Params{pd.Name: "?"}); err == nil {
					t.Errorf("%s=? accepted", pd.Name)
				}
				if got := pkt.Stats().Gets - before; got != 0 {
					t.Errorf("%s=? rejected only after simulating (%d packets)", pd.Name, got)
				}
			}

			p := exp.Params{}
			for _, pd := range d.Params {
				if v, ok := tinyScale[pd.Name]; ok {
					p[pd.Name] = v
				}
			}
			if len(p) == 0 && testing.Short() {
				t.Skip("no scale knob (fig10, fig12): seconds per run")
			}
			res, err := e.Run(1, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Experiment != d.Name || res.Seed != 1 || res.Report == "" || len(res.Metrics) == 0 {
				t.Errorf("result not filled in: experiment %q seed %d, %d report bytes, %d metrics",
					res.Experiment, res.Seed, len(res.Report), len(res.Metrics))
			}
		})
	}
}

// TestFCTRejectsUnknownNames: the four name-valued params of the fct
// experiment reach constructors that panic on a name they do not know;
// a user-supplied one must come back as an error instead.
func TestFCTRejectsUnknownNames(t *testing.T) {
	e, _ := exp.Lookup("fct")
	for _, name := range []string{"mode", "alg", "sched", "endhost"} {
		func() {
			defer func() {
				if x := recover(); x != nil {
					t.Errorf("%s=bogus panicked: %v", name, x)
				}
			}()
			if _, err := e.Run(1, exp.Params{name: "bogus", "requests": "50"}); err == nil {
				t.Errorf("%s=bogus accepted", name)
			}
		}()
	}
	// Every scheduler qdisc.Parse knows stays reachable, including the
	// one whose constructor needs a clock.
	if _, err := e.Run(1, exp.Params{"sched": "pie", "requests": "50"}); err != nil {
		t.Errorf("sched=pie: %v", err)
	}
}
