package scenario

import (
	"strings"
	"testing"

	"bundler/internal/clock"
	"bundler/internal/exp"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
	"bundler/internal/tcp"
	"bundler/internal/workload"
)

// TestStallNamesCutLink cuts a flow's data link mid-transfer: the run
// stops at its horizon unfinished, and the note it leaves names the
// stalled flow and calls the path dead.
func TestStallNamesCutLink(t *testing.T) {
	n := newNet(netConfig{Seed: 1})
	cut := false
	gate := netem.ReceiverFunc(func(p *pkt.Packet) {
		if cut {
			pkt.Put(p)
			return
		}
		n.bottleneck.Receive(p)
	})
	site := n.AddSiteAt(gate, nil)
	// One 9–10 MB request, arriving within a few hundred ms.
	rec := site.RunOpenLoop(Traffic{Dist: workload.NewSizeDist([]float64{9e6, 10e6}, []float64{0.5, 1}),
		OfferedBps: 1e9, Requests: 1})
	clock.At(n.eng, 500*sim.Millisecond, func() { cut = true })

	var notes []string
	exp.SetNotes(func(line string) { notes = append(notes, line) })
	defer exp.SetNotes(nil)
	n.RunUntilDone(30*sim.Second, rec)

	if rec.Done() {
		t.Fatal("the flow finished through a cut link")
	}
	if len(notes) != 1 {
		t.Fatalf("%d notes, want one for the one stalled flow: %q", len(notes), notes)
	}
	st := n.stalls()
	if len(st) != 1 || st[0].Verdict != "dead path" {
		t.Fatalf("stalls %+v, want one with verdict \"dead path\"", st)
	}
	t.Log(notes[0])
	if st[0].Acked >= st[0].Size || st[0].Timeouts < 3 {
		t.Errorf("stall %+v: want a partial transfer after repeated timeouts", st[0])
	}
	if !strings.Contains(notes[0], "flow ") || !strings.HasSuffix(notes[0], ": dead path") {
		t.Errorf("note %q does not name the flow and the dead path", notes[0])
	}
}

// TestStallNamesWindowRunaway runs one BBR flow over the dumbbell
// behind an element that drops 2 % of its packets. BBR's delivery-rate
// sampler credits a cumulative ACK's whole jump to one inter-ACK gap,
// so within 10 s its window is hundreds of times the path's 600 kB BDP,
// the shape of sec74's stalled BBR flow; the verdict names that.
func TestStallNamesWindowRunaway(t *testing.T) {
	n := newNet(netConfig{Seed: 1})
	site := n.AddSiteAt(netem.NewLossy(n.eng, 0.02, n.bottleneck), nil)
	site.AddFlow(65e6, tcp.NewBBR(), nil)
	n.eng.RunUntil(10 * sim.Second)
	st := n.stalls()
	if len(st) != 1 || st[0].Verdict != "window runaway" {
		t.Fatalf("stalls %+v, want one with verdict \"window runaway\"", st)
	}
	t.Log(st[0])
	if st[0].CwndBytes < 8*st[0].BDP || st[0].BDP != 600e3 {
		t.Errorf("stall %+v: want a cwnd of at least 8 × the path's 600 kB BDP", st[0])
	}
}

// TestStallRules pins the rule table on records shaped like the stalls
// each row names.
func TestStallRules(t *testing.T) {
	rtt := 50 * sim.Millisecond
	for _, c := range []struct {
		name string
		st   tcp.Stall
		idle sim.Time
		want string
	}{
		// The 93.7 MB flow that an RTT estimator fed recovery-long
		// samples left unfinished at 150 s.
		{"estimator", tcp.Stall{SRTT: 28 * sim.Second, RTO: 60 * sim.Second, RTOAtCap: true, Timeouts: 14, Retransmits: 44305},
			20 * sim.Second, "RTT estimator"},
		// sec74's status-quo BBR flow: 13.5 MB acked of 65 MB at 150 s.
		{"runaway", tcp.Stall{SRTT: 470 * sim.Millisecond, RTO: 60 * sim.Second, RTOAtCap: true, Timeouts: 7,
			Retransmits: 186846, CwndBytes: 220e6}, 6 * sim.Second, "window runaway"},
		{"dead path", tcp.Stall{SRTT: 60 * sim.Millisecond, RTO: 25 * sim.Second, Timeouts: 7}, 29 * sim.Second, "dead path"},
		{"starved", tcp.Stall{SRTT: 80 * sim.Millisecond, RTO: 300 * sim.Millisecond}, 12 * sim.Second, "scheduler starvation"},
		{"moving", tcp.Stall{SRTT: 80 * sim.Millisecond, RTO: 300 * sim.Millisecond, Timeouts: 1}, 100 * sim.Millisecond, "slow progress"},
	} {
		s := stall{Stall: c.st, Idle: c.idle, BDP: 600e3} // 96 Mbit/s × 50 ms
		for _, r := range stallRules {
			if r.match(&s, rtt) {
				s.Verdict = r.verdict
				break
			}
		}
		if s.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, s.Verdict, c.want)
		}
	}
}
