package exp

import (
	"fmt"
	"sync"
)

// slot is one registry position: the experiment occupying it and the
// attributes of the Def that opened it. They belong to the position, so
// a loaded config that shadows a built-in keeps its place in the
// canonical order, its visibility and its aliases.
type slot struct {
	e       Experiment
	hidden  bool
	aliases []string
}

// registry holds every known experiment. Canonical ordering is the
// registration order, which internal/scenario fixes in one place
// (experiments.go) — the CLIs' "all" mode and help text both derive
// from it instead of maintaining their own lists.
type registry struct {
	mu      sync.RWMutex
	ordered []*slot
	byName  map[string]*slot // canonical names and aliases
}

var reg = &registry{byName: map[string]*slot{}}

// Register adds e to the registry in canonical (call) order, under its
// name and — for a Def's experiment — its aliases. It panics on a
// duplicate name: two experiments claiming one name is a programming
// error that silent last-wins resolution would hide.
func Register(e Experiment) {
	if _, err := reg.add(e, false); err != nil {
		panic("exp: " + err.Error())
	}
}

// RegisterOrReplace registers e, replacing any existing experiment of
// the same name in place (canonical order, hidden status and aliases
// preserved). It reports whether a replacement happened. Loaded topology
// configs use it to shadow a built-in experiment with a declarative
// re-expression of the same scenario; their name collisions are bad
// input, not programming errors, hence the error return.
func RegisterOrReplace(e Experiment) (replaced bool, err error) {
	return reg.add(e, true)
}

func (r *registry) add(e Experiment, replace bool) (replaced bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := e.Name()
	if s, taken := r.byName[name]; taken {
		if c := s.e.Name(); c != name {
			// Lookup resolves the alias, so this experiment would be
			// silently unreachable.
			return false, fmt.Errorf("experiment %q collides with alias of %q", name, c)
		}
		if !replace {
			return false, fmt.Errorf("duplicate experiment %q", name)
		}
		s.e = e
		return true, nil
	}
	s := &slot{e: e}
	if v, ok := e.(*defExp); ok {
		s.hidden, s.aliases = v.d.Hidden, v.d.Aliases
	}
	for _, a := range s.aliases {
		if t, taken := r.byName[a]; taken {
			return false, fmt.Errorf("alias %q of %q collides with experiment %q", a, name, t.e.Name())
		}
	}
	r.byName[name] = s
	for _, a := range s.aliases {
		r.byName[a] = s
	}
	r.ordered = append(r.ordered, s)
	return false, nil
}

// Lookup resolves a name or alias to its experiment.
func Lookup(name string) (Experiment, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	s, ok := reg.byName[name]
	if !ok {
		return nil, false
	}
	return s.e, true
}

// All returns the non-hidden experiments in canonical order.
func All() []Experiment {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := make([]Experiment, 0, len(reg.ordered))
	for _, s := range reg.ordered {
		if !s.hidden {
			out = append(out, s.e)
		}
	}
	return out
}

// Names returns the non-hidden experiment names in canonical order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.Name()
	}
	return out
}

// Aliases returns the alias → canonical name map.
func Aliases() map[string]string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	out := map[string]string{}
	for _, s := range reg.ordered {
		for _, a := range s.aliases {
			out[a] = s.e.Name()
		}
	}
	return out
}
