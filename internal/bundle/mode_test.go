package bundle

import (
	"math"
	"math/bits"
	"testing"

	"bundler/internal/ccalg"
	"bundler/internal/clock"
	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/sim"
)

// modeMu is the capacity estimate every mode-machine case runs at.
const modeMu = 100e6

// modeDetector names one primed detector window: a flat zero (never
// elastic), or a 5 Hz wave at the pulse frequency around mean·μ.
type modeDetector struct {
	name string
	mean float64 // fraction of μ; NaN means flat zero
}

var modeDetectors = []modeDetector{
	{"flat", math.NaN()},
	{"wave-0.1", 0.1}, // elastic at the pass-through gate only
	{"wave-0.3", 0.3}, // elastic at both gates
}

// newModeBox builds a Sendbox whose detector window is full of d's
// samples and whose capacity estimate is modeMu.
func newModeBox(d modeDetector) *Sendbox {
	eng := sim.NewEngine(1)
	s := NewSendbox(eng, Config{}, &netem.Sink{}, pkt.Addr{Host: ctlHostSend, Port: 1}, pkt.Addr{Host: ctlHostRecv, Port: 1})
	s.Stop()
	hz := s.pulser.Frequency()
	for i := 0; i < ccalg.DetectorWindow; i++ {
		z := 0.0
		if !math.IsNaN(d.mean) {
			z = d.mean*modeMu + 0.2*modeMu*math.Sin(2*math.Pi*hz*float64(i)*controlInterval.Seconds())
		}
		s.detector.AddSample(z)
	}
	s.muSmooth = modeMu
	return s
}

// modeInputs is one bucket of everything updateMode reads.
type modeInputs struct {
	mode               Mode
	haveMeas           bool
	oooTotal, oooCount int
	sinceChange        clock.Time // now − modeChangedAt
	rate, xc           float64    // fractions of μ
	dq                 float64    // seconds
	starvedAge         clock.Time // now − starvedSince; 0 means not starving
	votes              uint32
	nVotes             int
	sinceDetect        clock.Time // now − lastDetectAt
	minRTT             clock.Time
}

// load writes in onto s at time now.
func (in modeInputs) load(s *Sendbox, now clock.Time) {
	s.mode = in.mode
	s.modeChangedAt = now - in.sinceChange
	s.oooTotal, s.oooCount = in.oooTotal, in.oooCount
	s.link.SetRate(in.rate * modeMu)
	s.xcEwma = in.xc * modeMu
	s.dqEwma = in.dq
	s.starvedSince = 0
	if in.starvedAge > 0 {
		s.starvedSince = now - in.starvedAge
	}
	s.elasticVotes, s.nVotes = in.votes, in.nVotes
	s.lastDetectAt = now - in.sinceDetect
	s.minRTT = in.minRTT
}

// oooBuckets returns the out-of-order counts of total samples that sit
// just below and just above each of the two multipath thresholds.
func oooBuckets(total int) []int {
	var out []int
	for _, th := range []float64{oooThreshold / 4, oooThreshold} {
		c := int(th * float64(total))
		for _, v := range []int{c, c + 1} {
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
		}
	}
	return out
}

// TestModeMachine checks the §5 mode policy at small scope. One
// updateMode call from every bucketed state must keep to it: only the
// five (from, to) pairs occur; Disabled is left only for delay control,
// on a clean window, after its 5 s dwell; pass-through is left only
// after its 2 s dwell, and starvation enters it only after 2 s of
// starving; without a measurement only the multipath rows move the box.
// Frozen inputs must not flip PT↔DC faster than every 2 s.
func TestModeMachine(t *testing.T) {
	t.Run("step", checkModeSteps)
	t.Run("frozen", checkFrozenRuns)
}

// checkModeSteps calls updateMode once from every bucketed state.
func checkModeSteps(t *testing.T) {
	const now = 100 * clock.Second
	allowed := map[[2]Mode]bool{
		{ModeDelayControl, ModeDisabled}:    true,
		{ModePassThrough, ModeDisabled}:     true,
		{ModeDisabled, ModeDelayControl}:    true,
		{ModeDelayControl, ModePassThrough}: true,
		{ModePassThrough, ModeDelayControl}: true,
	}
	ms := func(f float64) clock.Time { return clock.Time(f * float64(clock.Second)) }
	var moves [3][3]int
	cases := 0
	for _, d := range modeDetectors {
		s := newModeBox(d)
		if !s.detector.Ready() {
			t.Fatal("detector not primed")
		}
		for _, mode := range []Mode{ModeDelayControl, ModePassThrough, ModeDisabled} {
			for _, haveMeas := range []bool{false, true} {
				for _, total := range []int{31, 32, 256} {
					for _, count := range oooBuckets(total) {
						for _, since := range []float64{0, 1.9, 2.1, 5.1} {
							for _, rate := range []float64{0.09, 0.11} {
								for _, xc := range []float64{0.29, 0.49, 0.51} {
									for _, dq := range []float64{0.01, 0.039, 0.041} {
										for _, age := range []float64{0, 1.9, 2.1} {
											for _, votes := range []uint32{0, 0b11, 0b111} {
												for _, nv := range []int{19, 20} {
													for _, sinceDetect := range []float64{0.05, 0.1} {
														in := modeInputs{
															mode: mode, haveMeas: haveMeas,
															oooTotal: total, oooCount: count,
															sinceChange: ms(since), rate: rate, xc: xc, dq: dq,
															starvedAge: ms(age), votes: votes, nVotes: nv,
															sinceDetect: ms(sinceDetect), minRTT: 50 * clock.Millisecond,
														}
														in.load(s, now)
														s.updateMode(haveMeas, now)
														cases++
														checkModeStep(t, d, in, s, now, allowed)
														moves[in.mode][s.mode]++
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// Every one of the five pairs must occur somewhere in the buckets, or
	// the enumeration does not reach the rule that makes it.
	for pair := range allowed {
		if moves[pair[0]][pair[1]] == 0 {
			t.Errorf("no bucket moves %v → %v", pair[0], pair[1])
		}
	}
	t.Logf("%d cases; moves %v", cases, moves)
}

// checkModeStep checks one updateMode call that started from in and left
// the box s.
func checkModeStep(t *testing.T, d modeDetector, in modeInputs, s *Sendbox, now clock.Time, allowed map[[2]Mode]bool) {
	t.Helper()
	from, to := in.mode, s.mode
	fail := func(msg string) { t.Fatalf("%s: %v → %v from %s %+v", msg, from, to, d.name, in) }
	if !in.haveMeas && s.lastDetectAt != now-in.sinceDetect {
		fail("vote cast without a measurement")
	}
	if to == from {
		return
	}
	if !allowed[[2]Mode{from, to}] {
		fail("transition outside the five pairs")
	}
	if s.modeChangedAt != now || s.elasticVotes != 0 || s.nVotes != 0 || s.starvedSince != 0 {
		fail("transition did not stamp the time and clear the votes and the starvation clock")
	}
	if !in.haveMeas && from != ModeDisabled && to != ModeDisabled {
		fail("only the multipath rows may move the box without a measurement")
	}
	switch {
	case from == ModeDisabled:
		frac := float64(in.oooCount) / float64(in.oooTotal)
		if to != ModeDelayControl || in.oooTotal < 32 || frac >= oooThreshold/4 || in.sinceChange <= 5*clock.Second {
			fail("left Disabled without a clean window and its 5 s dwell")
		}
	case from == ModePassThrough && to == ModeDelayControl:
		if in.sinceChange <= 2*clock.Second {
			fail("left pass-through within 2 s")
		}
	case from == ModeDelayControl && to == ModePassThrough:
		if s.lastDetectAt == now {
			// An elasticity exit: the new vote makes at most this many
			// of the last five.
			if bits.OnesCount32((in.votes<<1|1)&0x1f) < 3 {
				fail("elasticity exit without three of five votes")
			}
		} else if in.starvedAge <= 2*clock.Second {
			fail("starvation exit within 2 s of starving")
		}
	}
}

// checkFrozenRuns holds each bucket's inputs constant for 20 s of 10 ms
// control ticks, starting in delay control, and checks that consecutive
// PT↔DC changes are at least 2 s apart. With a long minRTT, inputs can be
// both starved (dq > 4·target) and calm (dq < ¼·minRTT): pass-through
// exits to delay control after its 2 s dwell, and because that mode
// change restarts the starvation clock, pass-through comes back no
// sooner than 2 s later.
func checkFrozenRuns(t *testing.T) {
	for _, d := range modeDetectors {
		for _, rate := range []float64{0.09, 0.11} {
			for _, xc := range []float64{0.29, 0.51} {
				for _, dq := range []float64{0.01, 0.041} {
					for _, minRTT := range []clock.Time{50 * clock.Millisecond, 400 * clock.Millisecond} {
						s := newModeBox(d)
						modeInputs{mode: ModeDelayControl, rate: rate, xc: xc, dq: dq, minRTT: minRTT, sinceDetect: clock.Second}.load(s, 0)
						var last clock.Time = -1
						for now := controlInterval; now <= 20*clock.Second; now += controlInterval {
							from := s.mode
							s.updateMode(true, now)
							if s.mode == from {
								continue
							}
							if last >= 0 && now-last < 2*clock.Second {
								t.Errorf("%s rate=%v xc=%v dq=%v minRTT=%v: %v → %v at %v, %v after the previous change",
									d.name, rate, xc, dq, minRTT, from, s.mode, now, now-last)
							}
							last = now
						}
					}
				}
			}
		}
	}
}
