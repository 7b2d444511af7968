package topo

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// configsDir is the shipped config-only scenario set; the tests here
// treat it as part of the package's contract.
const configsDir = "../../examples/configs"

// TestRoundTrip pins the parse → emit → parse cycle on every shipped
// config: emitting and re-parsing must reproduce the identical Config
// (comments are the only thing lost), and a second emit must be
// byte-stable.
func TestRoundTrip(t *testing.T) {
	for _, path := range exampleConfigs(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			c1, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := c1.Emit()
			if err != nil {
				t.Fatal(err)
			}
			c2, err := Parse(b1)
			if err != nil {
				t.Fatalf("re-parse emitted config: %v", err)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Fatalf("round-trip changed the config:\n%s", b1)
			}
			b2, err := c2.Emit()
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Fatalf("emit is not byte-stable")
			}
		})
	}
}

// TestValidateExamples dry-compiles every shipped config (cheap; the
// full smoke run lives in TestExampleConfigsSmoke).
func TestValidateExamples(t *testing.T) {
	for _, path := range exampleConfigs(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			cfg, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func exampleConfigs(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(configsDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected ≥4 shipped configs in %s, found %d", configsDir, len(files))
	}
	return files
}

// minimal returns a valid single-run config that the rejection tests
// mutate one field at a time.
func minimal() string {
	return `{
	  "name": "t",
	  "base": {
	    "rtt": "50ms",
	    "links": [{"name": "l1", "rate": "96e6", "delay": "25ms"}],
	    "hosts": [{"name": "h"}],
	    "workloads": [{"host": "h", "kind": "web", "load": "10e6", "requests": "100"}]
	  }
	}`
}

func TestMinimalIsValid(t *testing.T) {
	cfg, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestValidateMeshAllocs caps what validating a 64-site, two-run mesh
// config allocates. Validate checks a mesh run through its options and
// never builds the mesh; building its two meshes of 4 032 pairs each
// took about 79 000 allocations.
func TestValidateMeshAllocs(t *testing.T) {
	cfg, err := Parse([]byte(`{"name":"m","base":{"rtt":"50ms",
	  "mesh":{"sites":"64","mode":"hub","requests":"1","jitter":"2ms"}},
	  "runs":[{"label":"Status Quo"},
	    {"label":"Bundler","mesh":{"sites":"64","mode":"hub","requests":"1",
	      "jitter":"2ms","bundled":"true","perturb":"2s"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(5, func() {
		if err := Validate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Validate: %.0f allocations", n)
	if n > 50 {
		t.Fatalf("Validate made %.0f allocations on a 64-site mesh config, want at most 50", n)
	}
}

// TestRejections pins the error surface: every class of bad input a
// config file can carry must fail Validate (or Parse) with a message
// naming the problem, never panic or silently default.
func TestRejections(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // error substring
	}{
		{
			name: "mesh with explicit links",
			json: `{"name":"t","base":{"mesh":{"sites":"4"},
				"links":[{"name":"l1","rate":"96e6"}]}}`,
			want: "generates its own links",
		},
		{
			name: "mesh too few sites",
			json: `{"name":"t","base":{"mesh":{"sites":"1"}}}`,
			want: "sites 1 outside",
		},
		{
			name: "mesh too many sites",
			json: `{"name":"t","base":{"mesh":{"sites":"65"}}}`,
			want: "sites 65 outside",
		},
		{
			name: "mesh bad mode",
			json: `{"name":"t","base":{"mesh":{"sites":"4","mode":"ring"}}}`,
			want: "mesh mode",
		},
		{
			name: "mesh bad bundled flag",
			json: `{"name":"t","base":{"mesh":{"sites":"4","bundled":"maybe"}}}`,
			want: "bad bool",
		},
		{
			name: "mesh access rate below minimum",
			json: `{"name":"t","base":{"mesh":{"sites":"4","accessrate":"10"}}}`,
			want: "below the",
		},
		{
			name: "jitterordered without jitter",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","jitterordered":"true"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "jitterordered without a jitter bound",
		},
		{
			name: "bad link jitter",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","jitter":"-3ms"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "bad duration",
		},
		{
			name: "bad qdisc name",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","qdisc":"hfsc"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown scheduler",
		},
		{
			name: "bare wfq qdisc without classes",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","qdisc":"wfq"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "needs classes",
		},
		{
			name: "bare wfq bundle sched without classes",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"bundles":[{"host":"h","sched":"wfq"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "needs classes",
		},
		{
			name: "weights on sp spec",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"bundles":[{"host":"h","sched":"sp:8443=4/80"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "takes no weights",
		},
		{
			name: "class without name",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"port":"8443"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "has no name",
		},
		{
			name: "class without port",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "outside [1, 65535]",
		},
		{
			name: "class port out of range",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"70000"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "outside [1, 65535]",
		},
		{
			name: "duplicate class name",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80"},{"name":"a","port":"81"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "duplicate class",
		},
		{
			name: "duplicate class port",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80"},{"name":"b","port":"80"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "share port 80",
		},
		{
			name: "negative class weight",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80","weight":"-2"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "weight must be positive",
		},
		{
			name: "zero class weight",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80","weight":"0"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "weight must be positive",
		},
		{
			name: "infinite class weight",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80","weight":"+Inf"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "weight must be positive",
		},
		{
			name: "workload references unknown class",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80"}],
				"workloads":[{"host":"h","kind":"web","class":"b","load":"10e6","requests":"100"}]}}`,
			want: "unknown class \"b\"",
		},
		{
			name: "workload with class and dstport",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80"}],
				"workloads":[{"host":"h","kind":"web","class":"a","dstport":"80","load":"10e6","requests":"100"}]}}`,
			want: "not both",
		},
		{
			name: "class on non-web workload",
			json: `{"name":"t","base":{"horizon":"10s","links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"classes":[{"name":"a","port":"80"}],
				"workloads":[{"host":"h","kind":"bulk","class":"a"}]}}`,
			want: "class is only for web workloads",
		},
		{
			name: "mesh with classes",
			json: `{"name":"t","base":{"mesh":{"sites":"4"},
				"classes":[{"name":"a","port":"80"}]}}`,
			want: "generates its own links",
		},
		{
			name: "bad bundle scheduler",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"bundles":[{"host":"h","sched":"hfsc"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown scheduler",
		},
		{
			name: "dangling link endpoint",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","to":"nowhere"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown link \"nowhere\"",
		},
		{
			name: "link cycle",
			json: `{"name":"t","base":{"links":[
				{"name":"a","rate":"96e6","to":"b"},
				{"name":"b","rate":"96e6","to":"a"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "cycle",
		},
		{
			name: "duplicate link",
			json: `{"name":"t","base":{"links":[
				{"name":"l1","rate":"96e6"},{"name":"l1","rate":"48e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "duplicate link",
		},
		{
			name: "duplicate host",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"},{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "duplicate host",
		},
		{
			name: "host attaches to unknown link",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h","attach":"l2"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "attaches to \"l2\", which is neither a link nor an earlier host",
		},
		{
			name: "host attaches to a host without a bundle",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"p"},{"name":"h","attach":"p"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "which has no bundle",
		},
		{
			name: "host attaches to a host declared later",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h","attach":"p"},{"name":"p"}],
				"bundles":[{"host":"p"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "declared after it",
		},
		{
			name: "host attaches to itself",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h","attach":"h"}],
				"bundles":[{"host":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "attaches to itself",
		},
		{
			name: "host named like a link",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"l1"}],
				"workloads":[{"host":"l1","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "named like a link",
		},
		{
			name: "bundle on unknown host",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"bundles":[{"host":"ghost"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown host \"ghost\"",
		},
		{
			name: "two bundles on one host",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"bundles":[{"host":"h"},{"host":"h","sched":"fifo"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "two bundles",
		},
		{
			name: "workload on unknown host",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"ghost","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown host \"ghost\"",
		},
		{
			name: "unknown workload kind",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"torrent"}]}}`,
			want: "unknown kind",
		},
		{
			name: "bad inline CDF",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100",
					"sizes":[100,1000],"probs":[0.5]}]}}`,
			want: "matching size/prob points",
		},
		{
			name: "unknown named dist",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100","dist":"zipf"}]}}`,
			want: "unknown size distribution",
		},
		{
			name: "undeclared parameter reference",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"$nope"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "undeclared parameter \"$nope\"",
		},
		{
			name: "no horizon without web",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"bulk","flows":"2"}]}}`,
			want: "explicit horizon",
		},
		{
			name: "fct style without web workload",
			json: `{"name":"t","report":{"style":"fct"},
				"base":{"horizon":"10s","links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"bulk"}]}}`,
			want: "fct report style needs a web workload",
		},
		{
			name: "unknown report style",
			json: `{"name":"t","report":{"style":"table"},
				"base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown report style",
		},
		{
			name: "unparsable rate",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"fast"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "bad rate",
		},
		{
			name: "rate below minimum",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"10"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "below the",
		},
		{
			name: "buffer below one MTU",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","buffer":"100"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "below one MTU",
		},
		{
			name: "loss out of range",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","loss":1.5}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "outside [0, 1]",
		},
		{
			name: "repeat without trace",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","repeat":"5s"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "repeat without a ratetrace",
		},
		{
			name: "trace step beyond repeat period",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6",
				"ratetrace":[{"at":"0s","rate":"96e6"},{"at":"6s","rate":"48e6"}],"repeat":"5s"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "beyond the",
		},
		{
			name: "unsorted trace",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6",
				"ratetrace":[{"at":"4s","rate":"96e6"},{"at":"2s","rate":"48e6"}]}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "sorted",
		},
		{
			name: "unknown inner algorithm",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"bundles":[{"host":"h","alg":"vegas"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown inner algorithm",
		},
		{
			name: "unknown endhost cc",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100","cc":"dctcp"}]}}`,
			want: "unknown endhost cc",
		},
		{
			name: "unknown field",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6","qdsc":"fifo"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}`,
			want: "unknown field",
		},
		{
			name: "missing name",
			json: `{"base":{"links":[{"name":"l1","rate":"96e6"}],"hosts":[{"name":"h"}]}}`,
			want: "needs a name",
		},
		{
			name: "typoed param in report header",
			json: `{"name":"t","params":[{"name":"requests","default":"100"}],
				"report":{"header":"FCT ($reqs requests)"},
				"base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"$requests"}]}}`,
			want: "undeclared parameter \"$reqs\"",
		},
		{
			name: "fluid workload without users",
			json: `{"name":"t","base":{"horizon":"10s","links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"fluid"}]}}`,
			want: "needs a positive users count",
		},
		{
			name: "fluid workload bad users",
			json: `{"name":"t","base":{"horizon":"10s","links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"fluid","users":"many"}]}}`,
			want: "bad count",
		},
		{
			name: "two fluid workloads on one link",
			json: `{"name":"t","base":{"horizon":"10s","links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h1"},{"name":"h2"}],
				"workloads":[{"host":"h1","kind":"fluid","users":"10"},{"host":"h2","kind":"fluid","users":"20"}]}}`,
			want: "load the same link",
		},
		{
			name: "mesh sketch off with users on",
			json: `{"name":"t","base":{"mesh":{"sites":"2","users":"1000","sketch":"false"}}}`,
			want: "incompatible",
		},
		{
			name: "mesh bad sketch value",
			json: `{"name":"t","base":{"mesh":{"sites":"2","sketch":"maybe"}}}`,
			want: "want auto, true, or false",
		},
		{
			name: "mesh negative users",
			json: `{"name":"t","base":{"mesh":{"sites":"2","users":"-5"}}}`,
			want: "bad count",
		},
		{
			name: "trailing content after the config",
			json: `{"name":"t","base":{"links":[{"name":"l1","rate":"96e6"}],
				"hosts":[{"name":"h"}],
				"workloads":[{"host":"h","kind":"web","load":"10e6","requests":"100"}]}}
				{"name":"t2"}`,
			want: "trailing content",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Parse([]byte(tc.json))
			if err == nil {
				err = Validate(cfg)
			}
			if err == nil {
				t.Fatalf("want error containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
		})
	}
}

// TestFluidWorkloadKind runs a declarative scenario carrying a fluid
// background aggregate next to a packet workload: the aggregate must
// take (most of) the link, the cbr stream must keep the guaranteed
// foreground share, and both must land in the summary metrics.
func TestFluidWorkloadKind(t *testing.T) {
	cfg, err := Parse([]byte(`{
	  "name": "fluidtest",
	  "params": [{"name": "users", "default": "50000"}],
	  "base": {
	    "rtt": "50ms",
	    "horizon": "15s",
	    "links": [{"name": "l1", "rate": "48e6", "delay": "25ms"}],
	    "hosts": [{"name": "h"}],
	    "workloads": [
	      {"host": "h", "kind": "fluid", "users": "$users"},
	      {"host": "h", "kind": "cbr", "load": "2e6"}
	    ]
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	res, err := runConfig(cfg, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fluidMbps := res.Metric("fluidtest/fluid-h/Mbps")
	if fluidMbps < 0.5*48*0.95 {
		t.Errorf("fluid aggregate delivered %.1f Mbit/s, want most of the 48 Mbit/s link", fluidMbps)
	}
	cbrMbps := res.Metric("fluidtest/cbr-h/Mbps")
	if cbrMbps < 0.9*2 {
		t.Errorf("cbr stream squeezed to %.2f of its 2 Mbit/s: the foreground headroom is not holding", cbrMbps)
	}
	if lost := res.Metric("fluidtest/fluid-h/lost-bytes"); lost == 0 {
		t.Error("fluid aggregate saw no loss against a 50000-user offered load")
	}
}

// TestParamExpansion pins $name substitution: maximal-identifier
// matching (so $ratehigh never reads as $rate + "high"), no re-expansion
// of substituted values, the $$ escape, and undeclared-reference errors.
func TestParamExpansion(t *testing.T) {
	pv := map[string]string{"rate": "96e6", "ratehigh": "200e6", "n": "5", "tricky": "$rate"}
	for _, tc := range []struct{ in, want string }{
		{"$rate", "96e6"},
		{"$ratehigh", "200e6"},
		{"$n requests at $rate", "5 requests at 96e6"},
		{"$tricky", "$rate"}, // substituted values are not re-expanded
		{"costs $$5", "costs $5"},
		{"plain", "plain"},
	} {
		got, err := expand(tc.in, pv)
		if err != nil {
			t.Fatalf("expand(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("expand(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if _, err := expand("$missing", pv); err == nil {
		t.Fatal("want error for undeclared reference")
	}
	if _, err := expand("stray $ sign", pv); err == nil {
		t.Fatal("want error for stray unescaped dollar sign")
	}
}

// TestStripComments pins the comment stripper's string-awareness: a //
// inside a JSON string (a URL, say) must survive.
func TestStripComments(t *testing.T) {
	in := `{"a": "http://x//y", // trailing comment
	"b": 1} // end`
	got := string(stripComments([]byte(in)))
	want := "{\"a\": \"http://x//y\", \n\t\"b\": 1} "
	if got != want {
		t.Fatalf("stripComments = %q, want %q", got, want)
	}
}

// TestMergedOverrides pins the run-override semantics: non-empty
// sections replace, empty sections inherit.
func TestMergedOverrides(t *testing.T) {
	base := Scenario{
		RTT:       "50ms",
		Links:     []Link{{Name: "l1", Rate: "96e6"}},
		Hosts:     []Host{{Name: "h"}},
		Workloads: []Workload{{Host: "h", Kind: "web", Load: "10e6", Requests: "100"}},
	}
	r := Run{Label: "x", Scenario: Scenario{Bundles: []Bundle{{Host: "h"}}}}
	m := merged(base, r)
	if len(m.Bundles) != 1 || len(m.Links) != 1 || m.RTT != "50ms" {
		t.Fatalf("merged override wrong: %+v", m)
	}
	r2 := Run{Label: "y", Scenario: Scenario{Links: []Link{{Name: "l1", Rate: "48e6"}}}}
	m2 := merged(base, r2)
	if m2.Links[0].Rate != "48e6" || len(m2.Bundles) != 0 {
		t.Fatalf("merged replace wrong: %+v", m2)
	}
}
