package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bundler/internal/clock"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []Time{5 * Millisecond, Millisecond, 3 * Millisecond} {
		d := d
		clock.At(e, d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{Millisecond, 3 * Millisecond, 5 * Millisecond}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		clock.At(e, Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	clock.At(e, 2*Second, func() {
		clock.After(e, Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 3*Second {
		t.Fatalf("After fired at %v, want 3s", at)
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	clock.At(e, Second, func() { ran = append(ran, e.Now()) })
	clock.At(e, 3*Second, func() { ran = append(ran, e.Now()) })
	e.RunUntil(2 * Second)
	if len(ran) != 1 || ran[0] != Second {
		t.Fatalf("ran = %v, want [1s]", ran)
	}
	if e.Now() != 2*Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(ran) != 2 || ran[1] != 3*Second {
		t.Fatalf("after Run, ran = %v", ran)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	clock.At(e, Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		clock.At(e, 0, func() {})
	})
	e.Run()
}

// TestLaneRejectsDecreasingTime: a lane time below the lane's previous
// one, or below Now, panics like CallAt in the past.
func TestLaneRejectsDecreasingTime(t *testing.T) {
	nop := func(a0, a1 any) {}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	l := e.NewLane()
	l.CallAt(2*Second, nop, nil, nil)
	mustPanic("a lane time below the previous one", func() { l.CallAt(Second, nop, nil, nil) })
	e.RunUntil(3 * Second)
	mustPanic("a lane time below Now", func() { e.NewLane().CallAt(Second, nop, nil, nil) })
}

// TestStopLeavesQueue: Stop takes a timer's event out of the queue at
// once, so Pending counts only what will fire.
func TestStopLeavesQueue(t *testing.T) {
	e := NewEngine(1)
	var timers []clock.Timer
	for i := 0; i < 1024; i++ {
		tm := e.NewTimer(func() { t.Fatal("a stopped timer fired") })
		tm.ArmAfter(Time(1+i%7) * Second)
		timers = append(timers, tm)
	}
	if e.Pending() != 1024 {
		t.Fatalf("pending = %d with 1024 armed timers", e.Pending())
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if e.Pending() != 0 || len(e.events) != 0 {
		t.Fatalf("pending = %d, heap holds %d, after stopping every timer", e.Pending(), len(e.events))
	}
	e.Run()
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		clock.At(e, Time(i)*Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestTickerPeriodicAndStops(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	var tk clock.Ticker
	tk = e.Tick(10*Millisecond, func() {
		times = append(times, e.Now())
		if len(times) == 5 {
			tk.Stop()
		}
	})
	e.RunUntil(Second)
	if len(times) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(times))
	}
	for i, at := range times {
		want := Time(i+1) * 10 * Millisecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	e := NewEngine(1)
	clock.At(e, Second, func() {
		clock.After(e, -Second, func() {
			if e.Now() != Second {
				t.Errorf("clamped event at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Errorf("Millis() = %v, want 2.5", got)
	}
	if got := FromSeconds(0.25); got != 250*Millisecond {
		t.Errorf("FromSeconds(0.25) = %v, want 250ms", got)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Property: events always execute in non-decreasing timestamp order no
// matter the insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			clock.At(e, Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes an event past the horizon.
func TestPropertyRunUntilHorizon(t *testing.T) {
	f := func(delays []uint16, horizon uint16) bool {
		e := NewEngine(9)
		ok := true
		for _, d := range delays {
			clock.At(e, Time(d), func() {
				if e.Now() > Time(horizon) {
					ok = false
				}
			})
		}
		e.RunUntil(Time(horizon))
		return ok
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulingAllocFree pins the hot path's allocation contract: once
// the event free list and the heap have grown to their working size,
// CallAfter plus dispatch, lane scheduling plus dispatch, and stopping
// and re-arming a Timer allocate nothing. The first shape is the one
// bench/layers/sim prices (sim.sched_allocs): events that reschedule
// themselves among 1 024 pending ones. Lane events do the same on four
// lanes among 1 024 pending events, and a timer is armed, pushed out,
// stopped and fired among 1 024 armed timers that are themselves
// stopped and re-armed.
func TestSchedulingAllocFree(t *testing.T) {
	const pending, perRun = 1024, 4096

	eng := NewEngine(1)
	left := 0
	var fire func(a0, a1 any)
	fire = func(a0, _ any) {
		if left--; left <= 0 {
			eng.Stop()
		}
		eng.CallAfter(Time(1+eng.Rand().Intn(1000))*Microsecond, fire, a0, nil)
	}
	for i := 0; i < pending; i++ {
		eng.CallAfter(Time(i)*Microsecond, fire, eng, nil)
	}
	if n := testing.AllocsPerRun(10, func() {
		left = perRun
		eng.Run()
	}); n != 0 {
		t.Errorf("CallAfter + dispatch: %.0f allocations per %d events, want 0", n, perRun)
	}

	eng = NewEngine(1)
	for i := 0; i < pending; i++ {
		eng.CallAfter(Time(1000+i)*Second, fire, nil, nil) // never reached
	}
	var onLane func(a0, a1 any)
	onLane = func(a0, _ any) {
		if left--; left <= 0 {
			eng.Stop()
		}
		a0.(clock.Lane).CallAt(eng.Now()+Millisecond, onLane, a0, nil)
	}
	for l := 0; l < 4; l++ {
		lane := eng.NewLane()
		for i := 0; i < 64; i++ {
			lane.CallAt(Time(i)*Microsecond, onLane, lane, nil)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		left = perRun
		eng.Run()
	}); n != 0 {
		t.Errorf("lane CallAt + dispatch: %.0f allocations per %d events, want 0", n, perRun)
	}

	eng = NewEngine(1)
	var armed []clock.Timer
	for i := 0; i < pending; i++ {
		tm := eng.NewTimer(func() {})
		tm.ArmAfter(Time(1000+i) * Second) // past the test's 45 virtual seconds
		armed = append(armed, tm)
	}
	fired := 0
	tm := eng.NewTimer(func() { fired++ })
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < perRun; i++ {
			tm.ArmAfter(200 * Millisecond)
			tm.ArmAfter(300 * Millisecond)
			tm.Stop()
			tm.ArmAfter(Millisecond)
			other := armed[i%pending]
			other.Stop()
			other.ArmAfter(Time(1000+i%pending) * Second)
			eng.RunUntil(eng.Now() + Millisecond)
		}
	}); n != 0 {
		t.Errorf("Timer re-arm: %.0f allocations per %d arm/re-arm/stop/fire rounds, want 0", n, perRun)
	}
	if eng.Pending() != pending {
		t.Fatalf("pending = %d, want the %d re-armed timers", eng.Pending(), pending)
	}
	if fired != 11*perRun {
		t.Fatalf("timer fired %d times, want %d", fired, 11*perRun)
	}
}

// TestPooledEventSlabs pins slab carving for pooled events: a fresh
// engine's first N CallAts allocate one slab per eventSlab events. The
// heap is pre-sized so that only event storage is counted.
func TestPooledEventSlabs(t *testing.T) {
	const runs, n = 10, 200
	engs := make([]*Engine, runs+1) // AllocsPerRun adds a warm-up run
	for i := range engs {
		engs[i] = NewEngine(1)
		engs[i].events = make(eventHeap, 0, n)
	}
	fired := 0
	fire := func(_, _ any) { fired++ }
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		e := engs[next]
		next++
		for i := 0; i < n; i++ {
			e.CallAt(Time(i), fire, nil, nil)
		}
	}); allocs > (n+eventSlab-1)/eventSlab {
		t.Errorf("first %d pooled events: %.0f allocations, want ≤ %d", n, allocs, (n+eventSlab-1)/eventSlab)
	}
	for _, e := range engs {
		e.Run()
	}
	if fired != (runs+1)*n {
		t.Fatalf("%d events fired, want %d", fired, (runs+1)*n)
	}
}

// noop is the package-level callback TestTimerTickerSlabs' timers share,
// so a timer's own storage is all that NewTimer can allocate.
func noop() {}

// TestTimerTickerSlabs pins slab carving for timers and tickers. A fresh
// engine's first N timers cost the growing chunks (1, 2, 4 and 8
// timers) plus one chunk per slabCap after them, and so do tickers,
// whose timers call a package-level function instead of a bound tick
// method. Timers that share a chunk stay independent: with
// every other one stopped, exactly the armed ones fire, in (at, seq)
// order.
func TestTimerTickerSlabs(t *testing.T) {
	const runs, n = 10, 100
	budget := 5 + (n+slabCap-1)/slabCap
	fresh := func() []*Engine {
		engs := make([]*Engine, runs+1) // AllocsPerRun adds a warm-up run
		for i := range engs {
			engs[i] = NewEngine(1)
			engs[i].events = make(eventHeap, 0, n)
		}
		return engs
	}
	engs, next := fresh(), 0
	kept := make([]clock.Timer, n) // a discarded timer could live on the stack
	if allocs := testing.AllocsPerRun(runs, func() {
		e := engs[next]
		next++
		for i := range kept {
			kept[i] = e.NewTimer(noop)
		}
	}); allocs > float64(budget) {
		t.Errorf("first %d timers: %.0f allocations, want ≤ %d", n, allocs, budget)
	}
	engs, next = fresh(), 0
	if allocs := testing.AllocsPerRun(runs, func() {
		e := engs[next]
		next++
		for i := 0; i < n; i++ {
			e.Tick(Millisecond, noop)
		}
	}); allocs > float64(budget) {
		t.Errorf("first %d tickers: %.0f allocations, want ≤ %d", n, allocs, budget)
	}

	e := NewEngine(1)
	type armed struct {
		at Time
		i  int
	}
	var fired, want []armed
	timers := make([]clock.Timer, 40) // spans the 1-, 2-, 4-, 8- and 16-timer chunks and one more
	for i := range timers {
		timers[i] = e.NewTimer(func() { fired = append(fired, armed{e.Now(), i}) })
	}
	for i, tm := range timers {
		at := Time(i*7%5) * Millisecond // equal times: seq, i.e. arming order, breaks ties
		tm.ArmAt(at)
		if i%2 == 0 {
			want = append(want, armed{at, i})
		}
	}
	for i := 1; i < len(timers); i += 2 {
		timers[i].Stop()
	}
	for i, tm := range timers {
		if tm.Pending() != (i%2 == 0) {
			t.Fatalf("timer %d: Pending() = %v after stopping the odd timers", i, tm.Pending())
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	e.Run()
	if len(fired) != len(want) {
		t.Fatalf("%d timers fired, want %d: %v", len(fired), len(want), fired)
	}
	for k := range want {
		if fired[k] != want[k] {
			t.Fatalf("firing %d: timer %d at %v, want timer %d at %v", k, fired[k].i, fired[k].at, want[k].i, want[k].at)
		}
	}
}

// TestFIFOKeepsStorage: a FIFO serves values in push order, and one that
// never empties (a sliding window) reuses its slots rather than growing
// with the values served: after warm-up, a rotation allocates nothing.
func TestFIFOKeepsStorage(t *testing.T) {
	var f FIFO[int]
	next, want := 0, 0
	rotate := func() {
		f.Push(next)
		next++
		f.Push(next)
		next++
		for f.Len() > 5 {
			if got := f.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
		if items := f.Items(); len(items) != f.Len() || items[0] != want || f.Peek() != want || items[len(items)-1] != next-1 {
			t.Fatalf("window %v, want %d..%d", items, want, next-1)
		}
	}
	// One warm-up call, then one measured call of 1 000 rotations: the
	// count is their exact total, not a rounded mean.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			rotate()
		}
	}); allocs != 0 {
		t.Errorf("1 000 rotations allocate %v times, want 0", allocs)
	}
	if c := cap(f.s); c > 16 {
		t.Errorf("a window of at most 6 values holds %d slots", c)
	}
}
