package pilot

import (
	"fmt"

	"bundler/internal/clock"
	"bundler/internal/exp"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// RunTwin runs the pilot's exact topology and workload on the simulator:
// the same two sides RunSend and RunRecv wire, on one virtual clock, with
// the UDP hop replaced by a direct hand-off. Its result carries the same
// cell identity (experiment, seed, params) as RunSend's, so
// bundler-report diffs the two within a tolerance. This is the
// cross-validation closing the sim-to-deployment gap: if the pilot and
// the twin diverge beyond real-clock jitter, one of them is wrong.
func RunTwin(cfg Config) (exp.Result, error) {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	// The receive side's ACKs enter the send side, which is wired second:
	// its input is bound by the time the first packet moves.
	var a *sendSide
	toB := wireRecv(eng, cfg, netem.ReceiverFunc(func(p *pkt.Packet) { a.in.Receive(p) }))
	a = wireSend(eng, cfg, toB, nil)

	horizon := clock.Time(cfg.Horizon)
	for eng.Now() < horizon && a.remaining > 0 {
		eng.RunUntil(eng.Now() + 100*clock.Millisecond)
	}
	if a.remaining > 0 {
		return exp.Result{}, fmt.Errorf("pilot: twin horizon %v expired with %d/%d flows incomplete",
			cfg.Horizon, a.remaining, cfg.Requests)
	}
	return buildResult(cfg, a.rec), nil
}
