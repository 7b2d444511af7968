package scenario

import (
	"fmt"

	"bundler/internal/exp"
	"bundler/internal/sim"
	"bundler/internal/tcp"
)

// stall is one live sender at a run's horizon, with the verdict the
// rule table gives it.
type stall struct {
	tcp.Stall
	Idle    sim.Time // since the last byte was acknowledged (or the start)
	BDP     float64  // the unloaded path's bandwidth-delay product, bytes; 0 if unknown
	Verdict string
}

// stallRules turn a stalled sender's record into a verdict: the first
// row that matches wins, so a narrow diagnosis sits above a broad one.
// rtt is the path's propagation round trip.
var stallRules = [...]struct {
	verdict string
	match   func(s *stall, rtt sim.Time) bool
}{
	// The estimator took RTT samples far above anything the path can
	// hold and backed the timer off to its cap: recovery crawls at one
	// RTO per step.
	{"RTT estimator", func(s *stall, rtt sim.Time) bool {
		return s.RTOAtCap && s.Timeouts >= 5 && s.SRTT >= 10*rtt
	}},
	// A window far beyond what the path holds: the controller's path
	// model ran away (BBR's bandwidth samples under loss).
	{"window runaway", func(s *stall, _ sim.Time) bool {
		return s.BDP > 0 && s.CwndBytes >= 8*s.BDP
	}},
	// Repeated timeouts with nothing acknowledged for a second: the
	// path loses everything the sender sends.
	{"dead path", func(s *stall, _ sim.Time) bool {
		return s.Timeouts >= 3 && s.Idle >= sim.Second
	}},
	// No timeout, yet nothing acknowledged for ten seconds: the flow's
	// packets wait in a queue that serves others.
	{"scheduler starvation", func(s *stall, _ sim.Time) bool {
		return s.Timeouts == 0 && s.Idle >= 10*sim.Second
	}},
	{"slow progress", func(*stall, sim.Time) bool { return true }},
}

// stalls returns the record and verdict of every sender on the fabric
// that has not completed, in flow-ID order.
func (f *Fabric) stalls() []stall {
	now := f.eng.Now()
	var out []stall
	for _, st := range f.muxA.Stalls() {
		s := stall{Stall: st, Idle: now - max(st.LastAck, st.Start), BDP: f.oracleRate * f.oracleRTT.Seconds() / 8}
		for _, r := range stallRules {
			if r.match(&s, f.oracleRTT) {
				s.Verdict = r.verdict
				break
			}
		}
		out = append(out, s)
	}
	return out
}

// noteStalls leaves a note (exp.Note) per live sender: a run that
// stopped at its horizon unfinished says which flows were still in
// flight and why.
func (f *Fabric) noteStalls() {
	for _, s := range f.stalls() {
		exp.Note(s.String())
	}
}

func (s stall) String() string {
	rto := s.RTO.String()
	if s.RTOAtCap {
		rto += " (cap)"
	}
	state := "open"
	if s.Recovery {
		state = "in recovery"
	}
	return fmt.Sprintf("stall flow %d: %d B, acked %d B, started %v, last ack %v, idle %v, srtt %v, rto %s, max rtt %v, %d timeouts, %d retransmits, %s, cwnd %.0f B (path BDP %.0f B): %s",
		s.FlowID, s.Size, s.Acked, s.Start, s.LastAck, s.Idle, s.SRTT, rto, s.MaxRTT,
		s.Timeouts, s.Retransmits, state, s.CwndBytes, s.BDP, s.Verdict)
}
