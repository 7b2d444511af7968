// Package clock abstracts time and scheduling for every component of the
// Bundler reproduction. The paper's Bundler is a deployed middlebox
// processing live traffic; this repository grew up as a simulator, with
// *sim.Engine hard-wired into every constructor. The Clock interface is
// the seam that removes that assumption: the same bundle/qdisc/tcp/netem
// code runs on the simulator's virtual clock (deterministic, the golden
// path) or on a wall clock moving real UDP datagrams (internal/pilot).
//
// Two implementations exist:
//
//   - *sim.Engine satisfies Clock natively: virtual time, single-threaded,
//     exactly reproducible given a seed.
//   - *Wall (this package) drives the same contract from monotonic
//     time.Now with a timer-heap dispatch goroutine. It keeps the
//     ordering and exactly-once guarantees but is, by nature, not
//     deterministic — see the Wall documentation for the exact
//     deviations.
//
// The scheduling contract shared by all implementations:
//
//   - Callbacks run one at a time ("the clock goroutine"): no two
//     callbacks of one Clock ever run concurrently.
//   - Callbacks dispatch in timestamp order, FIFO among equal
//     timestamps (scheduling order breaks ties).
//   - CallAfter clamps negative delays to zero; it never panics.
//   - A scheduled callback fires exactly once, unless cancelled
//     (Timer.Stop) before it fires. Stop is idempotent.
//
// Units: Time is integer nanoseconds, used for both timestamps and
// durations; rates elsewhere in the repository are float64 bits/second.
package clock

import (
	"fmt"
	"math/rand"
)

// Time is a timestamp or duration in nanoseconds. On the simulator it is
// virtual time since engine construction; on a wall clock it is monotonic
// time since the clock was created.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Clock is the injectable time source and scheduler. *sim.Engine
// implements it for virtual time; *Wall implements it for real time.
type Clock interface {
	// Now returns the current time on this clock.
	Now() Time

	// Rand returns the clock's random source. On the simulator it is
	// the seeded deterministic stream every stochastic component must
	// draw from; on a wall clock it is seeded too, but callback
	// interleaving makes the draw order non-reproducible. It must only
	// be used from the clock goroutine (inside callbacks).
	Rand() *rand.Rand

	// CallAt schedules fn(a0, a1) at absolute time t. fn should be a
	// package-level function (or a capture-free literal); the values it
	// needs travel in a0/a1, which keeps the simulator's hot path
	// allocation-free. Scheduling in the past is implementation-defined:
	// the simulator panics (it always indicates a logic error in a
	// deterministic run), the wall clock clamps to "as soon as
	// possible" (racing real time is inherent, not a bug).
	CallAt(t Time, fn func(a0, a1 any), a0, a1 any)

	// CallAfter is CallAt relative to Now; negative d is clamped to
	// zero on every implementation.
	CallAfter(d Time, fn func(a0, a1 any), a0, a1 any)

	// NewLane returns a FIFO lane for callbacks scheduled in
	// nondecreasing time, such as a constant-delay link's deliveries.
	NewLane() Lane

	// NewTimer returns an unarmed reusable one-shot timer bound to fn.
	NewTimer(fn func()) Timer

	// NewCallTimer is NewTimer with CallAt's callback shape: the timer
	// calls fn(a0, a1). A component that owns a timer for its lifetime
	// passes a package-level fn and itself in a0, so making the timer
	// allocates no bound method value.
	NewCallTimer(fn func(a0, a1 any), a0, a1 any) Timer

	// Tick invokes fn every period until the returned Ticker is
	// stopped. The first invocation is one period from now. period must
	// be positive.
	Tick(period Time, fn func()) Ticker

	// CallEvery is Tick with CallAt's callback shape: fn(a0, a1) runs
	// every period, for the same reason as NewCallTimer.
	CallEvery(period Time, fn func(a0, a1 any), a0, a1 any) Ticker
}

// Timer is a reusable one-shot timer: components that repeatedly
// schedule, cancel, and re-arm the same callback (retransmission
// timeouts, pacing gates) hold one Timer for their lifetime. Re-arming
// an armed timer reschedules it; the callback runs at most once per arm.
type Timer interface {
	// ArmAt (re)schedules the callback at absolute time at.
	ArmAt(at Time)
	// ArmAfter arms the timer d from now; negative d is clamped to zero.
	ArmAfter(d Time)
	// Stop disarms the timer. Stopping an unarmed (or already-fired)
	// timer is a no-op; Stop is idempotent.
	Stop()
	// Pending reports whether the timer is armed and will fire.
	Pending() bool
}

// Lane schedules callbacks whose times never decrease: each CallAt's t
// is at least the previous one's. A lane changes no dispatch order —
// its callbacks interleave with every other event exactly as Clock.CallAt
// would place them — but the simulator keeps only a lane's earliest
// event in its heap. A decreasing t panics on the simulator.
type Lane interface {
	CallAt(t Time, fn func(a0, a1 any), a0, a1 any)
}

// Ticker is a periodic callback; Stop cancels future ticks.
type Ticker interface {
	Stop()
}

// At schedules a plain func() at absolute time t on any Clock, for call
// sites that need closure convenience rather than the allocation-free
// two-argument path.
func At(c Clock, t Time, fn func()) { c.CallAt(t, runThunk, fn, nil) }

// After schedules a plain func() d from now (negative d clamps to zero).
func After(c Clock, d Time, fn func()) { c.CallAfter(d, runThunk, fn, nil) }

func runThunk(a0, _ any) { a0.(func())() }
