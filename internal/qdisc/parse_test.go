package qdisc

import (
	"strings"
	"testing"

	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// declared stands in for a config's classes section, which bare "wfq"
// and "sp" resolve against.
var declared = []Class{{Name: "web", Port: 8443, Weight: 8}, {Name: "bulk", Port: 80, Weight: 1}}

var parseGood = []struct {
	name    string
	spec    string
	classes []Class
}{
	{"default", "", nil},
	{"sfq", "sfq", nil},
	{"fifo", "fifo", nil},
	{"fqcodel", "fqcodel", nil},
	{"codel", "codel", nil},
	{"red", "red", nil},
	{"drr", "drr", nil},
	{"pie", "pie", nil},
	{"prio", "prio:8443", nil},
	{"sp two ports", "sp:8443/80", nil},
	{"sp one port", "sp:53", nil},
	{"wfq weighted", "wfq:8443=8/80=1", nil},
	{"wfq default weight", "wfq:8443/80", nil},
	{"wfq fractional weight", "wfq:8443=2.5/80=1", nil},
	{"bare wfq with declared classes", "wfq", declared},
	{"bare sp with declared classes", "sp", declared},
	{"inline spec beside declared classes", "sp:53", declared},
}

var parseBad = []struct {
	name string
	spec string
	want string // error substring
}{
	{"bare wfq", "wfq", "needs classes"},
	{"bare sp", "sp", "needs classes"},
	{"sp empty list", "sp:", "empty class list"},
	{"wfq empty list", "wfq:", "empty class list"},
	{"weights on sp", "sp:8443=4/80", "takes no weights"},
	{"bad port", "wfq:notaport=1", "bad class port"},
	{"port zero", "sp:0/80", "bad class port"},
	{"port too big", "sp:70000", "bad class port"},
	{"duplicate port", "wfq:80=4/80=1", "duplicate class port"},
	{"negative weight", "wfq:8443=-2/80=1", "bad weight"},
	{"zero weight", "wfq:8443=0/80=1", "bad weight"},
	{"nan weight", "wfq:8443=NaN/80=1", "bad weight"},
	{"inf weight", "wfq:8443=+Inf/80=1", "bad weight"},
	{"garbage weight", "wfq:8443=heavy/80=1", "bad weight"},
	{"bad prio port", "prio:http", "bad prio port"},
	{"unknown name", "hfsc", "unknown scheduler"},
}

// TestParseSpecs pins the scheduler-spec grammar — every malformed spec
// a config or -sched flag can carry must come back as an error naming
// the problem, and well-formed specs must build the scheduler they
// name. The "/" separator (not ",") is load-bearing: a spec must
// survive as a single sweep-grid axis value.
func TestParseSpecs(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, tc := range parseGood {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(eng, tc.spec, 100, tc.classes)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.spec, err)
			}
			if q == nil {
				t.Fatalf("Parse(%q) returned nil qdisc", tc.spec)
			}
		})
	}
	for _, tc := range parseBad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(eng, tc.spec, 100, nil); err == nil {
				t.Fatalf("Parse(%q) accepted a bad spec", tc.spec)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.want)
			}
		})
	}
	// A depth no constructor accepts is an error, not their panic.
	for _, tc := range []struct {
		spec    string
		packets int
	}{{"sfq", 0}, {"fifo", -3}, {"prio:80", 1}} {
		if _, err := Parse(eng, tc.spec, tc.packets, nil); err == nil || !strings.Contains(err.Error(), "depth") {
			t.Errorf("Parse(%q, %d packets): want a depth error, got %v", tc.spec, tc.packets, err)
		}
	}
}

// FuzzParse: whatever the spec, depth and class section, Parse returns
// an error or a working qdisc — it never panics, and a scheduler it
// accepts takes a packet and gives the same packet back.
func FuzzParse(f *testing.F) {
	for _, tc := range parseGood {
		f.Add(tc.spec, 100, tc.classes != nil)
	}
	for _, tc := range parseBad {
		f.Add(tc.spec, 100, false)
	}
	f.Add("prio:80", 1, false)
	f.Add("sfq", 0, true)
	f.Fuzz(func(t *testing.T, spec string, packets int, withClasses bool) {
		if packets > 4096 {
			t.Skip() // depth sizes allocations; the grammar is what is under test
		}
		var classes []Class
		if withClasses {
			classes = declared
		}
		q, err := Parse(sim.NewEngine(1), spec, packets, classes)
		if err != nil {
			return
		}
		p := &pkt.Packet{Dst: pkt.Addr{Host: 2, Port: 80}, Proto: pkt.ProtoTCP, Size: 100}
		if !q.Enqueue(p) {
			t.Fatalf("Parse(%q, %d): empty qdisc refused a 100-byte packet", spec, packets)
		}
		if got := q.Dequeue(); got != p {
			t.Fatalf("Parse(%q, %d): dequeued %v, want the packet just queued", spec, packets, got)
		}
	})
}

// TestParseSpecSemantics: a built sp: spec actually prioritizes
// its first port, and a wfq: spec routes unmatched traffic to the last
// class rather than dropping or misclassifying it.
func TestParseSpecSemantics(t *testing.T) {
	eng := sim.NewEngine(1)
	mk := func(port uint16, size int) *pkt.Packet {
		return &pkt.Packet{Dst: pkt.Addr{Host: 2, Port: port}, Proto: pkt.ProtoTCP, Size: size}
	}

	sp, err := Parse(eng, "sp:8443/80", 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp.Enqueue(mk(80, 100))
	sp.Enqueue(mk(8443, 100))
	if p := sp.Dequeue(); p.Dst.Port != 8443 {
		t.Fatalf("sp served port %d first, want 8443", p.Dst.Port)
	}

	wq, err := Parse(eng, "wfq:8443=8/80=1", 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := wq.(*WFQ)
	if !ok {
		t.Fatalf("wfq spec built %T", wq)
	}
	// Unmatched port 443 lands in the last class ("p80"): it must still
	// be queued and come back out.
	w.Enqueue(mk(443, 100))
	if w.Len() != 1 {
		t.Fatal("unmatched packet not queued")
	}
	if p := w.Dequeue(); p == nil || p.Dst.Port != 443 {
		t.Fatal("unmatched packet lost")
	}
}
