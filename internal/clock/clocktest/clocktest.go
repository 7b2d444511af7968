// Package clocktest is the shared conformance suite for clock.Clock
// implementations. The simulator engine and the wall clock both run it
// (see internal/sim and internal/clock tests), so the scheduling
// contract the migrated components rely on — timestamp ordering with
// FIFO tie-break, exactly-once delivery, negative-delay clamping,
// Stop-idempotent timers, lanes that keep that order — is pinned by one
// set of assertions rather than drifting per implementation.
package clocktest

import (
	"testing"

	"bundler/internal/clock"
)

// Factory builds a fresh clock for one subtest, plus a wait function
// that returns only after every callback scheduled at or before horizon
// has finished running. For the simulator that is RunUntil; for the
// wall clock it blocks on a sentinel event. wait must establish a
// happens-before edge, so the test goroutine may freely read state the
// callbacks wrote.
type Factory func(t *testing.T) (c clock.Clock, wait func(horizon clock.Time))

// Timescale note: subtests schedule a few tens of milliseconds out.
// On the simulator that is instant; on the wall clock it keeps each
// subtest under ~100ms real time while staying far above timer
// resolution and scheduler jitter, so ordering assertions are sound.

// Run executes the full contract suite against the implementation
// produced by f.
func Run(t *testing.T, f Factory) {
	t.Run("Ordering", func(t *testing.T) { testOrdering(t, f) })
	t.Run("ExactlyOnce", func(t *testing.T) { testExactlyOnce(t, f) })
	t.Run("NegativeDelayClamp", func(t *testing.T) { testNegativeDelayClamp(t, f) })
	t.Run("TimerStopIdempotent", func(t *testing.T) { testTimerStopIdempotent(t, f) })
	t.Run("TimerRearm", func(t *testing.T) { testTimerRearm(t, f) })
	t.Run("TimerRearmAfterStop", func(t *testing.T) { testTimerRearmAfterStop(t, f) })
	t.Run("Ticker", func(t *testing.T) { testTicker(t, f) })
	t.Run("TickRejectsNonPositivePeriod", func(t *testing.T) { testTickPanics(t, f) })
	t.Run("CallForms", func(t *testing.T) { testCallForms(t, f) })
	t.Run("Lane", func(t *testing.T) { testLane(t, f) })
	t.Run("Rand", func(t *testing.T) { testRand(t, f) })
}

// testOrdering: callbacks dispatch in timestamp order, FIFO among equal
// timestamps regardless of scheduling order.
func testOrdering(t *testing.T, f Factory) {
	c, wait := f(t)
	base := c.Now() + 20*clock.Millisecond
	var got []string
	rec := func(s string) func() { return func() { got = append(got, s) } }
	clock.At(c, base+8*clock.Millisecond, rec("d"))
	clock.At(c, base+2*clock.Millisecond, rec("b1"))
	clock.At(c, base+5*clock.Millisecond, rec("c"))
	clock.At(c, base+2*clock.Millisecond, rec("b2")) // same stamp as b1, scheduled later
	clock.At(c, base, rec("a"))
	wait(base + 10*clock.Millisecond)
	want := []string{"a", "b1", "b2", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("fired %d callbacks, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// testExactlyOnce: each scheduled callback fires exactly once even when
// the clock keeps running long past its deadline.
func testExactlyOnce(t *testing.T, f Factory) {
	c, wait := f(t)
	base := c.Now() + 5*clock.Millisecond
	counts := make([]int, 4)
	for i := range counts {
		i := i
		clock.At(c, base+clock.Time(i)*clock.Millisecond, func() { counts[i]++ })
	}
	wait(base + 20*clock.Millisecond)
	wait(c.Now() + 20*clock.Millisecond) // keep running well past the deadlines
	for i, n := range counts {
		if n != 1 {
			t.Fatalf("callback %d fired %d times, want exactly once", i, n)
		}
	}
}

// testNegativeDelayClamp: CallAfter (and Timer.ArmAfter) with negative
// delay clamps to zero — the callback still fires, before anything
// scheduled later in time.
func testNegativeDelayClamp(t *testing.T, f Factory) {
	c, wait := f(t)
	var got []string
	clock.After(c, -5*clock.Millisecond, func() { got = append(got, "neg") })
	clock.After(c, 5*clock.Millisecond, func() { got = append(got, "pos") })
	tm := c.NewTimer(func() { got = append(got, "timer-neg") })
	tm.ArmAfter(-3 * clock.Millisecond)
	wait(c.Now() + 10*clock.Millisecond)
	if len(got) != 3 {
		t.Fatalf("fired %v, want all three callbacks (negative delays must clamp, not drop)", got)
	}
	if got[2] != "pos" {
		t.Fatalf("dispatch order %v: clamped-negative callbacks must precede the +5ms one", got)
	}
}

// testTimerStopIdempotent: Stop on an unarmed timer is a no-op, Stop on
// an armed timer cancels exactly that arm, and repeated Stops are
// harmless.
func testTimerStopIdempotent(t *testing.T, f Factory) {
	c, wait := f(t)
	fired := 0
	tm := c.NewTimer(func() { fired++ })
	tm.Stop() // unarmed: no-op, must not panic
	if tm.Pending() {
		t.Fatalf("unarmed timer reports Pending")
	}
	base := c.Now() + 10*clock.Millisecond
	tm.ArmAt(base)
	if !tm.Pending() {
		t.Fatalf("armed timer does not report Pending")
	}
	tm.Stop()
	tm.Stop() // idempotent
	if tm.Pending() {
		t.Fatalf("stopped timer reports Pending")
	}
	wait(base + 10*clock.Millisecond)
	if fired != 0 {
		t.Fatalf("stopped timer fired %d times", fired)
	}
}

// testTimerRearm: re-arming an armed timer replaces the old deadline —
// one fire, at the new time (proven by ordering against a marker event
// between the two deadlines).
func testTimerRearm(t *testing.T, f Factory) {
	c, wait := f(t)
	base := c.Now() + 10*clock.Millisecond
	var got []string
	tm := c.NewTimer(func() { got = append(got, "timer") })
	tm.ArmAt(base + 2*clock.Millisecond)
	tm.ArmAt(base + 14*clock.Millisecond) // re-arm later, past the marker
	clock.At(c, base+8*clock.Millisecond, func() { got = append(got, "marker") })
	wait(base + 20*clock.Millisecond)
	if len(got) != 2 || got[0] != "marker" || got[1] != "timer" {
		t.Fatalf("got %v, want [marker timer]: re-arm must replace the old deadline, not add to it", got)
	}
	if tm.Pending() {
		t.Fatalf("fired timer reports Pending")
	}
}

// testTimerRearmAfterStop: a stopped timer is reusable.
func testTimerRearmAfterStop(t *testing.T, f Factory) {
	c, wait := f(t)
	fired := 0
	tm := c.NewTimer(func() { fired++ })
	tm.ArmAfter(2 * clock.Millisecond)
	tm.Stop()
	tm.ArmAfter(5 * clock.Millisecond)
	wait(c.Now() + 15*clock.Millisecond)
	if fired != 1 {
		t.Fatalf("re-armed-after-stop timer fired %d times, want 1", fired)
	}
}

// testTicker: fires every period until stopped; stopping from inside
// the callback takes effect immediately.
func testTicker(t *testing.T, f Factory) {
	c, wait := f(t)
	ticks := 0
	var tk clock.Ticker
	tk = c.Tick(3*clock.Millisecond, func() {
		ticks++
		if ticks == 3 {
			tk.Stop()
		}
	})
	wait(c.Now() + 30*clock.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", ticks)
	}
}

// testCallForms: NewCallTimer and CallEvery hand their callback the
// arguments they were given, and behave as NewTimer and Tick do.
func testCallForms(t *testing.T, f Factory) {
	c, wait := f(t)
	type box struct{ fired, ticks int }
	b := &box{}
	tm := c.NewCallTimer(func(a0, a1 any) {
		if a1.(string) == "timer" {
			a0.(*box).fired++
		}
	}, b, "timer")
	tm.ArmAfter(2 * clock.Millisecond)
	var tk clock.Ticker
	tk = c.CallEvery(3*clock.Millisecond, func(a0, _ any) {
		bx := a0.(*box)
		if bx.ticks++; bx.ticks == 3 {
			tk.Stop()
		}
	}, b, nil)
	wait(c.Now() + 30*clock.Millisecond)
	if b.fired != 1 || b.ticks != 3 {
		t.Fatalf("call timer fired %d times, call ticker %d; want 1 and 3", b.fired, b.ticks)
	}
}

// testTickPanics: a non-positive period is a programming error on every
// implementation.
func testTickPanics(t *testing.T, f Factory) {
	c, _ := f(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("Tick(0) did not panic")
		}
	}()
	c.Tick(0, func() {})
}

// testLane: a lane delivers in FIFO order, and its callbacks interleave
// with CallAt ones exactly as CallAt alone would order them, scheduling
// order breaking ties at one timestamp.
func testLane(t *testing.T, f Factory) {
	c, wait := f(t)
	base := c.Now() + 20*clock.Millisecond
	var got []string
	rec := func(a0, _ any) { got = append(got, a0.(string)) }
	a, b := c.NewLane(), c.NewLane()
	a.CallAt(base, rec, "a1", nil)
	c.CallAt(base, rec, "c1", nil)
	b.CallAt(base+clock.Millisecond, rec, "b1", nil)
	a.CallAt(base, rec, "a2", nil)
	c.CallAt(base+2*clock.Millisecond, rec, "c2", nil)
	b.CallAt(base+2*clock.Millisecond, rec, "b2", nil)
	a.CallAt(base+2*clock.Millisecond, rec, "a3", nil)
	a.CallAt(base+6*clock.Millisecond, rec, "a4", nil)
	c.CallAt(base+4*clock.Millisecond, rec, "c3", nil)
	wait(base + 10*clock.Millisecond)
	want := []string{"a1", "c1", "a2", "b1", "c2", "b2", "a3", "c3", "a4"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// testRand: the clock exposes a usable seeded source.
func testRand(t *testing.T, f Factory) {
	c, _ := f(t)
	if c.Rand() == nil {
		t.Fatalf("Rand() returned nil")
	}
	c.Rand().Int63() // must not panic
}
