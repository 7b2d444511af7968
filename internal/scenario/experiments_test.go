package scenario

import (
	"testing"

	"bundler/internal/exp"
	"bundler/internal/pkt"
)

// TestExperimentTable walks every row of the table, hidden ones
// included: the row is registered under its name and aliases, a value
// that does not parse is rejected for each declared param before a
// single packet is minted, and each of its runs reports under its name.
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

			n := 0
			for _, row := range runs {
				if row.exp != d.Name {
					continue
				}
				n++
				res := shared(t, row.exp, row.params)
				if res.Experiment != d.Name || res.Seed != 1 || res.Report == "" || len(res.Metrics) == 0 {
					t.Errorf("%v: result not filled in: experiment %q seed %d, %d report bytes, %d metrics",
						row.params, res.Experiment, res.Seed, len(res.Report), len(res.Metrics))
				}
			}
			if n == 0 {
				t.Error("no row in runs: tier-1 never simulates it")
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
	shared(t, "fct", exp.Params{"sched": "pie", "requests": "50"})
}
