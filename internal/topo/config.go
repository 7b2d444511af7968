// Package topo is the declarative scenario layer: experiments as data
// instead of code. A Config — JSON with // comments — names a topology
// (links with rate/delay/qdisc/loss and optional time-varying rate
// traces, hosts attached to them, Bundler pairs placed on hosts, hosts
// nested in another host's bundle) and the workloads offered through it,
// plus the labeled run variants to compare (status quo vs Bundler,
// schedulers, ...). The compiler (compile.go)
// instantiates the same internal/sim, netem, bundle, and workload
// machinery the hand-coded internal/scenario experiments use — the
// shipped fig9 config reproduces the hand-coded fig9 experiment byte for
// byte — and Experiment (exp.go) wraps a Config as a first-class
// exp.Experiment, so loaded configs sweep, grid, and parallelize exactly
// like built-ins.
//
// Units follow the repository convention: rates are bits/s (float syntax,
// so "96e6" reads naturally), durations are Go time.Duration strings
// ("50ms"), buffers and flow sizes are bytes, queue depths are packets.
// Any string field may reference a declared parameter as "$name" ("$$"
// for a literal dollar sign); values come from the sweep grid or -set at
// run time, making every knob of a config a sweepable axis.
package topo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// ParamDecl declares one tunable of a config, mirroring exp.Param:
// "$name" references anywhere in the config resolve to its value.
type ParamDecl struct {
	Name    string `json:"name"`
	Default string `json:"default"`
	Help    string `json:"help,omitempty"`
}

// Report selects how a config's runs are rendered into an exp.Result.
type Report struct {
	// Style is "summary" (default: per-run workload statistics) or "fct"
	// (the shared FCT-comparison table of Figures 9/14/15; each run must
	// then offer at least one web workload, whose recorder makes the row).
	Style string `json:"style,omitempty"`
	// Header is the report banner; "$param" references are substituted.
	// Default: the config's desc, or its name.
	Header string `json:"header,omitempty"`
}

// Link declares one rate-limited, store-and-forward link of the forward
// path. Links form a DAG converging on the destination ("dst").
type Link struct {
	Name string `json:"name"`
	// Rate is the drain rate in bits/s ("96e6").
	Rate string `json:"rate"`
	// Delay is the one-way propagation delay ("25ms"); default 0.
	Delay string `json:"delay,omitempty"`
	// Qdisc names the queueing discipline holding the backlog: "fifo"
	// (default), or any scenario scheduler name (sfq, fqcodel, codel,
	// red, drr, pie, prio:<port>).
	Qdisc string `json:"qdisc,omitempty"`
	// Buffer is the queue capacity in bytes; default 2×BDP computed from
	// Rate and the scenario's RTT. Packet-budgeted qdiscs get Buffer/MTU
	// packets.
	Buffer string `json:"buffer,omitempty"`
	// Loss drops each entering packet independently with this
	// probability (Bernoulli, from the engine's deterministic RNG).
	Loss float64 `json:"loss,omitempty"`
	// To names the downstream link, or "dst" (default): the destination
	// demux where receivers live.
	To string `json:"to,omitempty"`
	// RateTrace makes the link time-varying: a piecewise-constant rate
	// schedule starting at t=0. Repeat (a duration) loops the trace.
	RateTrace []TraceStep `json:"ratetrace,omitempty"`
	Repeat    string      `json:"repeat,omitempty"`
	// Jitter adds uniform per-packet delay variation in [0, Jitter) at
	// the link's exit ("5ms"; default off). JitterOrdered ("true") opts
	// into the order-preserving element: delivery clamps to the previous
	// packet's, so latency varies but FIFO order holds — without it,
	// jitter larger than the packet spacing reorders, which Bundler's
	// §5.2 heuristic reads as multipath imbalance. A string like every
	// other knob, so "$param" references make it a sweep axis.
	Jitter        string `json:"jitter,omitempty"`
	JitterOrdered string `json:"jitterordered,omitempty"`
}

// TraceStep is one point of a link's rate trace.
type TraceStep struct {
	At   string `json:"at"`
	Rate string `json:"rate"`
}

// MeshDecl declares an N-site mesh generated from a handful of knobs
// instead of enumerated links and hosts: N sites exchange traffic
// pairwise, each ordered site pair is one bundle, and each source site's
// per-destination sendboxes share one physical box behind the site's
// access bottleneck (the §9 scale-out family; see scenario.NewMesh). A
// scenario with a mesh section generates its own links, hosts, bundles,
// and workloads — declaring those sections alongside it is an error.
type MeshDecl struct {
	// Sites is the site count N (≥ 2); the mesh carries N·(N-1) ordered
	// pairs. "$param" references make it a sweep axis.
	Sites string `json:"sites"`
	// Mode is "hub" (default: access links feed one shared core link) or
	// "pairwise" (access links deliver directly).
	Mode string `json:"mode,omitempty"`
	// AccessRate is the per-site access link rate in bits/s (default
	// 96e6); CoreRate the hub core rate (default sites·accessrate/2).
	AccessRate string `json:"accessrate,omitempty"`
	CoreRate   string `json:"corerate,omitempty"`
	// Bundled interposes a Bundler pair per site pair (default false).
	Bundled string `json:"bundled,omitempty"`
	// Queue is the per-bundle sendbox SFQ depth in packets (default 1000).
	Queue string `json:"queue,omitempty"`
	// Perturb re-keys every sendbox SFQ this often ("2s"; default off).
	Perturb string `json:"perturb,omitempty"`
	// Jitter bounds uniform in-path delay variation after each access
	// link (default off); JitterOrdered selects the order-preserving
	// element (default true — plain jitter fakes multipath reordering).
	Jitter        string `json:"jitter,omitempty"`
	JitterOrdered string `json:"jitterordered,omitempty"`
	// Requests is the web request count per ordered pair (default 300);
	// Load the per-pair offered bits/s (default 70 % of the access rate
	// split across the site's destinations).
	Requests string `json:"requests,omitempty"`
	Load     string `json:"load,omitempty"`
	// Users emulates this many background users per site as a fluid AIMD
	// aggregate on each access link (scenario.MeshOptions.BgUsersPerSite;
	// default 0 = off). "$param" makes the user count a sweep axis.
	Users string `json:"users,omitempty"`
	// Sketch selects bounded quantile sketches for the FCT statistics:
	// "auto" (default: on when Users > 0), "true", or "false" ("false"
	// with Users set is an error — emulated-user runs need bounded stats).
	Sketch string `json:"sketch,omitempty"`
}

// ClassDecl declares one scheduler traffic class: flows whose
// destination port matches Port belong to the class. One declaration
// drives every mode of a scheduler sweep — WFQ divides service by the
// Weights, strict priority ("sp") serves classes in declaration order
// (first = highest) and ignores the weights, and any other scheduler
// (FIFO included) still gets per-class metering, so a fifo/sp/wfq grid
// reports the same fairness section for every cell. Packets matching no
// declared class fall to the last class for scheduling and to an
// "other" bucket in the metering.
type ClassDecl struct {
	Name string `json:"name"`
	// Port is the destination port selecting the class (1-65535).
	Port string `json:"port"`
	// Weight is the WFQ service weight (positive; default 1).
	Weight string `json:"weight,omitempty"`
}

// Host declares one source-site/destination-site pairing (a
// scenario.Site): a cluster of endpoints whose egress enters the forward
// path at Attach and whose ingress hangs off the destination demux.
type Host struct {
	// Name must differ from every link's, so Attach is never ambiguous.
	Name string `json:"name"`
	// Attach names the link the host's egress enters; default: the first
	// declared link. Naming an earlier-declared host that has a bundle
	// nests this host inside that bundle (§9; scenario.Fabric.AddSiteIn):
	// its egress enters the parent's sendbox, the parent's receivebox
	// observes its traffic too, and it shares the parent's path.
	Attach string `json:"attach,omitempty"`
}

// Bundle places a Bundler pair on a host: the sendbox in front of what
// the host attaches to (a link, or the enclosing host's sendbox), the
// receivebox tapping the host's ingress.
type Bundle struct {
	Host string `json:"host"`
	// Alg names the inner-loop controller: "copa" (default),
	// "basicdelay", or "bbr".
	Alg string `json:"alg,omitempty"`
	// Sched names the sendbox scheduler (default "sfq"). Bare "wfq" and
	// "sp" resolve against the scenario's classes section; the inline
	// "wfq:<port>=<weight>/..." and "sp:<port>/..." spellings carry their
	// own class lists.
	Sched string `json:"sched,omitempty"`
	// Queue is the sendbox scheduler depth in packets (default 1000).
	Queue string `json:"queue,omitempty"`
	// Tunnel switches epoch identification to the §4.5 encapsulation
	// variant.
	Tunnel bool `json:"tunnel,omitempty"`
}

// Workload declares one traffic source offered through a host.
type Workload struct {
	Host string `json:"host"`
	// Kind selects the generator:
	//
	//	"web"   — open-loop Poisson request arrivals (§7.1); FCTs recorded
	//	"bulk"  — backlogged long-running TCP flows
	//	"ping"  — closed-loop 40-byte UDP request/response probes (§8)
	//	"cbr"   — paced constant-bit-rate UDP stream (§3's video class)
	//	"fluid" — Users emulated background users as one packet-free AIMD
	//	          aggregate loading the host's attach link (package fluid)
	Kind string `json:"kind"`
	// Load is the offered load in bits/s (web: mean arrival load; cbr:
	// stream rate).
	Load string `json:"load,omitempty"`
	// Requests is the number of web requests to complete; the run ends
	// when every web workload reaches its count (or at the horizon).
	Requests string `json:"requests,omitempty"`
	// Dist names a built-in size distribution ("web", the default);
	// Sizes/Probs give an inline CDF instead (bytes, cumulative probs).
	Dist  string    `json:"dist,omitempty"`
	Sizes []float64 `json:"sizes,omitempty"`
	Probs []float64 `json:"probs,omitempty"`
	// CC names the endhost congestion control ("cubic" default; web and
	// bulk kinds).
	CC string `json:"cc,omitempty"`
	// FixedCwnd pins every endhost window to this many segments (the
	// §7.5 idealized-proxy emulation; web kind).
	FixedCwnd string `json:"fixedcwnd,omitempty"`
	// DstPort overrides the flows' destination port (the §7.2 priority
	// experiments classify on it; web kind).
	DstPort string `json:"dstport,omitempty"`
	// Class assigns the flows to a declared scheduler class by name,
	// setting their destination port to the class's port (web kind; give
	// class or dstport, not both).
	Class string `json:"class,omitempty"`
	// Warmup excludes flows arriving before this virtual time from the
	// statistics (web kind).
	Warmup string `json:"warmup,omitempty"`
	// Flows is the bulk flow count (default 1); Size the per-flow
	// transfer in bytes (default 1e12, i.e. effectively backlogged).
	Flows string `json:"flows,omitempty"`
	Size  string `json:"size,omitempty"`
	// PktSize is the cbr packet size in bytes (default MTU).
	PktSize string `json:"pktsize,omitempty"`
	// Users is the fluid kind's emulated user count (required, > 0);
	// "$param" makes it a sweep axis.
	Users string `json:"users,omitempty"`
}

// Scenario is one complete topology + workload description. It appears
// twice in a Config: as the shared base and as per-run overrides, where
// any non-empty section replaces the base's wholesale (empty sections
// inherit; to compare with/without bundles, leave bundles out of the
// base and add them per run).
type Scenario struct {
	// RTT is the base end-to-end propagation round trip ("50ms" default):
	// it sets the reverse path's delay (RTT/2) and the default 2×BDP
	// link buffers. Forward-path delay comes from the links' own Delay
	// fields; each host's slowdown oracle uses its own path (minimum
	// link rate and summed forward delay plus the RTT/2 reverse leg).
	RTT string `json:"rtt,omitempty"`
	// Horizon bounds the run in virtual time. Default: load-scaled, 10 ms
	// per web request with a 120 s floor (the FCT experiments' rule);
	// required when no web workload gates completion.
	Horizon string `json:"horizon,omitempty"`
	// Classes declares the scheduler traffic classes workloads may join
	// and the bare "wfq"/"sp" bundle scheduler modes resolve against.
	Classes   []ClassDecl `json:"classes,omitempty"`
	Links     []Link      `json:"links,omitempty"`
	Hosts     []Host      `json:"hosts,omitempty"`
	Bundles   []Bundle    `json:"bundles,omitempty"`
	Workloads []Workload  `json:"workloads,omitempty"`
	// Mesh generates an N-site mesh topology instead of the explicit
	// sections above (which must then be absent).
	Mesh *MeshDecl `json:"mesh,omitempty"`
}

// Run is one labeled variant of the config's scenario: its sections
// override the base's.
type Run struct {
	Label    string `json:"label"`
	Scenario        // inline overrides
}

// Config is one declarative experiment: a named, parameterized scenario
// with labeled run variants and a report style.
type Config struct {
	Name   string      `json:"name"`
	Desc   string      `json:"desc,omitempty"`
	Params []ParamDecl `json:"params,omitempty"`
	Report Report      `json:"report,omitempty"`
	Base   Scenario    `json:"base"`
	Runs   []Run       `json:"runs,omitempty"`
}

// Parse decodes a config from JSON. Line comments (// to end of line,
// outside strings) are stripped first so shipped configs can be
// annotated. Unknown fields are rejected — a typoed key silently
// reverting to a default is exactly the class of error a declarative
// layer must surface.
func Parse(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(stripComments(data))))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("topo: parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		// A second JSON value (a botched merge of two configs, say) must
		// not be silently dropped.
		return nil, fmt.Errorf("topo: parse config: trailing content after the config object")
	}
	if c.Name == "" {
		return nil, fmt.Errorf("topo: config needs a name")
	}
	return &c, nil
}

// Load reads and parses a config file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return c, nil
}

// Emit renders the config as canonical indented JSON (comments are not
// preserved). Parse(Emit(c)) round-trips to an identical Config.
func (c *Config) Emit() ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("topo: emit config: %w", err)
	}
	return append(b, '\n'), nil
}

// stripComments removes // line comments outside of JSON strings.
func stripComments(data []byte) []byte {
	out := make([]byte, 0, len(data))
	inStr, esc := false, false
	for i := 0; i < len(data); i++ {
		ch := data[i]
		if inStr {
			out = append(out, ch)
			switch {
			case esc:
				esc = false
			case ch == '\\':
				esc = true
			case ch == '"':
				inStr = false
			}
			continue
		}
		if ch == '"' {
			inStr = true
			out = append(out, ch)
			continue
		}
		if ch == '/' && i+1 < len(data) && data[i+1] == '/' {
			for i < len(data) && data[i] != '\n' {
				i++
			}
			if i < len(data) {
				out = append(out, '\n')
			}
			continue
		}
		out = append(out, ch)
	}
	return out
}

// paramValues resolves the declared parameters against the run-time
// overrides in p, rejecting unknown or empty declarations.
func (c *Config) paramValues(p map[string]string) (map[string]string, error) {
	pv := make(map[string]string, len(c.Params))
	for _, d := range c.Params {
		if d.Name == "" {
			return nil, fmt.Errorf("topo: config %s: param with empty name", c.Name)
		}
		if _, dup := pv[d.Name]; dup {
			return nil, fmt.Errorf("topo: config %s: duplicate param %q", c.Name, d.Name)
		}
		pv[d.Name] = d.Default
	}
	for k, v := range p {
		if _, ok := pv[k]; ok {
			pv[k] = v
		}
	}
	return pv, nil
}

// expand substitutes "$name" references with parameter values in one
// deterministic left-to-right pass: each reference consumes the maximal
// identifier after the "$" (so $ratehigh never reads as $rate + "high"),
// substituted values are not re-expanded, "$$" escapes a literal dollar
// sign, and references to undeclared parameters are errors.
func expand(s string, pv map[string]string) (string, error) {
	if !strings.Contains(s, "$") {
		return s, nil
	}
	var out strings.Builder
	out.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '$' {
			out.WriteByte(s[i])
			i++
			continue
		}
		if i+1 < len(s) && s[i+1] == '$' {
			out.WriteByte('$')
			i += 2
			continue
		}
		j := i + 1
		for j < len(s) && isIdent(s[j]) {
			j++
		}
		name := s[i+1 : j]
		if name == "" {
			return "", fmt.Errorf(`stray "$" (use "$$" for a literal dollar sign)`)
		}
		v, ok := pv[name]
		if !ok {
			return "", fmt.Errorf("reference to undeclared parameter %q", "$"+name)
		}
		out.WriteString(v)
		i = j
	}
	return out.String(), nil
}

func isIdent(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// merged returns the run's effective scenario: base with the run's
// non-empty sections substituted.
func merged(base Scenario, r Run) Scenario {
	sc := base
	if r.RTT != "" {
		sc.RTT = r.RTT
	}
	if r.Horizon != "" {
		sc.Horizon = r.Horizon
	}
	if len(r.Classes) > 0 {
		sc.Classes = r.Classes
	}
	if len(r.Links) > 0 {
		sc.Links = r.Links
	}
	if len(r.Hosts) > 0 {
		sc.Hosts = r.Hosts
	}
	if len(r.Bundles) > 0 {
		sc.Bundles = r.Bundles
	}
	if len(r.Workloads) > 0 {
		sc.Workloads = r.Workloads
	}
	if r.Mesh != nil {
		sc.Mesh = r.Mesh
	}
	return sc
}

// runList returns the labeled runs, synthesizing a single run named
// after the config when none are declared.
func (c *Config) runList() []Run {
	if len(c.Runs) == 0 {
		return []Run{{Label: c.Name}}
	}
	return c.Runs
}
