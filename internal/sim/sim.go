// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the network emulation in this repository runs on virtual time: an
// Engine owns a monotonically increasing clock and a priority queue of
// events. Components schedule callbacks at absolute or relative virtual
// times; the engine runs them in timestamp order (FIFO among equal
// timestamps). Because nothing ever consults the wall clock, every run is
// exactly reproducible given the same seed — the property that lets the
// paper's evaluation (§7–§9) regenerate byte for byte.
//
// Units convention: Time is integer nanoseconds of virtual time, used
// for both timestamps and durations; rates elsewhere in the repository
// are float64 bits/second.
//
// The Engine satisfies clock.Clock, the injectable scheduling interface
// in internal/clock; components written against that interface run
// unchanged on this engine or on a real-time clock.Wall.
package sim

import (
	"fmt"
	"math/rand"

	"bundler/internal/clock"
)

// Time is a virtual timestamp or duration in nanoseconds. It is an alias
// for clock.Time: simulator timestamps and wall-clock timestamps are the
// same type, so components migrated to the clock.Clock interface
// interoperate with sim-era code without conversions.
type Time = clock.Time

// Common durations, re-exported from internal/clock.
const (
	Nanosecond  = clock.Nanosecond
	Microsecond = clock.Microsecond
	Millisecond = clock.Millisecond
	Second      = clock.Second
)

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return clock.FromSeconds(s) }

// event is a scheduled callback. Events come in two kinds, distinguished
// by how their storage is managed:
//
//   - pooled events (CallAt/CallAfter): owned by the engine's free list
//     and recycled the moment they fire. No handle escapes, so no caller
//     can observe the reuse. This is the allocation-free hot path; plain
//     closures ride it through clock.At/clock.After.
//   - intrusive events: embedded in a timer (or ticker) and re-armed in
//     place by their owner.
//
// A pooled event scheduled through a lane may wait outside the heap,
// linked behind its lane's head (see lane).
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events with equal timestamps

	// Every event carries a static callback and its arguments in the
	// event itself, so no caller needs a capturing closure. A timer's
	// event is owned: it stays with its timer when it fires.
	afn   func(a0, a1 any)
	a0    any
	a1    any
	owned bool

	index int    // heap index; -1 when not in the heap
	lane  *lane  // the lane this event was scheduled on, if any
	next  *event // the lane's next event, waiting behind this one
}

// heapEntry is one slot of the event queue. The ordering key (at, seq)
// is duplicated inline so sift comparisons walk the slice sequentially
// instead of chasing an *event per compare — with tens of thousands of
// pending events the queue is the engine's hottest data structure, and
// the pointer-chasing version spent most of its time in cache misses.
// The key total-orders events (seq is unique), so pop order — and with
// it every simulation result — is identical to any other heap layout.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

// eventHeap is a hand-rolled binary min-heap over heapEntry. It replaces
// container/heap to keep entries unboxed and comparisons devirtualized.
// The sifts are the textbook ones, except that the moving entry is held
// aside while the entries it passes shift into its place: each level
// writes one entry and one back-index instead of swapping two of each.
type eventHeap []heapEntry

func (a *heapEntry) before(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// set stores x at index i and points its event's back-index there.
func (h eventHeap) set(i int, x heapEntry) {
	h[i] = x
	x.ev.index = i
}

func (h eventHeap) up(i int) {
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, x)
}

// down sifts index i toward the leaves, reporting whether it moved.
func (h eventHeap) down(i int) bool {
	i0 := i
	n := len(h)
	x := h[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(&h[j]) {
			j = r
		}
		if !h[j].before(&x) {
			break
		}
		h.set(i, h[j])
		i = j
	}
	h.set(i, x)
	return i > i0
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, heapEntry{at: ev.at, seq: ev.seq, ev: ev})
	h.up(len(*h) - 1)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *event {
	ev := (*h)[0].ev
	h.remove(0)
	return ev
}

// replaceMin puts ev in place of the earliest event, which leaves the
// heap; ev must not sort before it (a lane's next event).
func (h eventHeap) replaceMin(ev *event) {
	h[0].ev.index = -1
	h[0] = heapEntry{at: ev.at, seq: ev.seq, ev: ev}
	h.down(0)
}

// remove deletes the entry at index i (popMin, timer Stop): the last
// entry takes its place and is sifted into order.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i].ev.index = -1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i != n {
		old[i] = last
		old[:n].fix(i)
	}
}

// fix re-establishes heap order after the entry at index i changed its
// key (timer re-arm); the caller must have updated the inline key first.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// Engine is a single-threaded discrete-event executor with a deterministic
// pseudo-random source. The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
	free    []*event // recycled pooled events (CallAt/CallAfter)
	evs     []event  // never-used pooled events, carved eventSlab at a time
	queued  int      // lane events waiting behind their lane's head
	lanes   []lane   // carved into NewLane results, laneSlab at a time
	timers  Slab[timer]
	tickers Slab[ticker]
}

// laneSlab is how many lanes one allocation backs: a component that
// takes a lane (every netem.Link) adds no allocation of its own.
const laneSlab = 128

// eventSlab is how many pooled events one allocation backs, for the
// events the free list cannot yet supply.
const eventSlab = 64

// slabCap is the largest chunk a Slab allocates.
const slabCap = 16

// Slab hands out pointers to zeroed values of T carved from shared
// chunks. The first chunk holds one value and each next one twice as
// many, up to slabCap: a handful of objects costs a handful of
// allocations, and many cost one per slabCap. A live value keeps its
// whole chunk reachable, so it pins at most slabCap-1 dead neighbours.
// The zero Slab is ready to use.
type Slab[T any] struct {
	free []T
	size int
}

// New returns a pointer to the next zeroed T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, 1), slabCap)
		s.free = make([]T, s.size)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// Arena carves the small buffers of many owners from shared chunks. A
// live buffer keeps its whole chunk reachable, so an arena suits buffers
// that live and die together. The zero Arena is ready to use.
type Arena[T any] struct{ free []T }

// arenaChunk is how many values an Arena chunk holds, unless a request needs more.
const arenaChunk = 256

// Take returns an empty slice of capacity n whose storage no other Take shares.
func (a *Arena[T]) Take(n int) []T {
	if len(a.free) < n {
		a.free = make([]T, max(n, arenaChunk))
	}
	v := a.free[:0:n]
	a.free = a.free[n:]
	return v
}

// FIFO is a first-in first-out queue of values in a slice read from a
// moving head: a sliding window (the Sendbox's boundary order, WFQ's
// finish tags, FQ-CoDel's flow lists) that keeps its storage. A push
// that finds the slice full with at least half of it consumed compacts
// instead of growing, so the storage follows the longest backlog, not
// the values served, and each value is copied O(1) times on average.
// The zero FIFO is empty and ready to use.
type FIFO[T any] struct {
	s    []T
	head int
}

// Len reports the queued values.
func (f *FIFO[T]) Len() int { return len(f.s) - f.head }

// Items returns the queued values, oldest first. The slice is valid
// until the next Push or Pop.
func (f *FIFO[T]) Items() []T { return f.s[f.head:] }

// Peek returns the oldest value. The FIFO must not be empty.
func (f *FIFO[T]) Peek() T { return f.s[f.head] }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if len(f.s) == cap(f.s) && 2*f.head >= len(f.s) {
		f.s = f.s[:copy(f.s, f.s[f.head:])]
		f.head = 0
	}
	f.s = append(f.s, v)
}

// Pop removes and returns the oldest value. The FIFO must not be empty.
func (f *FIFO[T]) Pop() T {
	v := f.s[f.head]
	f.head++
	if f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
	return v
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All stochastic
// components (workload generators, SFQ perturbation, ...) must draw from
// this source so runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// CallAt schedules fn(a0, a1) at absolute virtual time t without
// returning a handle. The backing event comes from a per-engine free
// list and is recycled the moment it fires, so steady-state scheduling
// through this path allocates nothing. Use it for per-packet work
// (link serialization, propagation, jitter), and NewTimer for anything
// that must be cancelled or re-armed. Scheduling in the past (t < Now)
// panics: it always indicates a logic error in a component.
//
// fn should be a package-level function (a func literal that captures
// nothing also compiles to a static value); the values it needs travel
// in a0/a1. Boxing a pointer into any does not allocate.
func (e *Engine) CallAt(t Time, fn func(a0, a1 any), a0, a1 any) {
	e.events.push(e.pooled(t, fn, a0, a1))
}

// pooled takes an event from the free list, or the slab when the list
// is empty, and stamps it for t.
func (e *Engine) pooled(t Time, fn func(a0, a1 any), a0, a1 any) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.evs) == 0 {
			e.evs = make([]event, eventSlab)
		}
		ev = &e.evs[0]
		e.evs = e.evs[1:]
	}
	e.seq++
	ev.at, ev.seq = t, e.seq
	ev.afn, ev.a0, ev.a1 = fn, a0, a1
	return ev
}

// CallAfter is CallAt relative to now; negative d is clamped to zero.
func (e *Engine) CallAfter(d Time, fn func(a0, a1 any), a0, a1 any) {
	if d < 0 {
		d = 0
	}
	e.CallAt(e.now+d, fn, a0, a1)
}

// NewLane implements clock.Clock. Only the earliest event of a lane sits
// in the heap; the rest wait behind it in scheduling order, each keeping
// the (time, seq) stamp CallAt would have given it, so the heap merges
// the lanes into exactly the order plain CallAt would produce. Lanes are
// carved from a per-engine slab.
func (e *Engine) NewLane() clock.Lane {
	if len(e.lanes) == 0 {
		e.lanes = make([]lane, laneSlab)
	}
	l := &e.lanes[0]
	e.lanes = e.lanes[1:]
	l.eng = e
	return l
}

// NewTimer implements clock.Clock: it returns an unarmed timer bound to
// fn, carved from the engine's timer slab.
func (e *Engine) NewTimer(fn func()) clock.Timer { return e.NewCallTimer(callFunc, fn, nil) }

// NewCallTimer implements clock.Clock: an unarmed timer that calls
// fn(a0, a1), carved from the engine's timer slab.
func (e *Engine) NewCallTimer(fn func(a0, a1 any), a0, a1 any) clock.Timer {
	t := e.timers.New()
	t.init(e, fn, a0, a1)
	return t
}

// Tick implements clock.Clock: fn runs every period, first one period
// from now, until the returned ticker is stopped.
func (e *Engine) Tick(period Time, fn func()) clock.Ticker {
	return e.CallEvery(period, callFunc, fn, nil)
}

// CallEvery implements clock.Clock: fn(a0, a1) runs every period, first
// one period from now, until the returned ticker is stopped. Each tick
// re-arms an intrusive timer, so a running ticker allocates nothing.
// Tickers are carved from the engine's ticker slab.
func (e *Engine) CallEvery(period Time, fn func(a0, a1 any), a0, a1 any) clock.Ticker {
	if period <= 0 {
		panic("sim: Tick period must be positive")
	}
	t := e.tickers.New()
	t.period, t.fn, t.a0, t.a1 = period, fn, a0, a1
	t.timer.init(e, tickerFire, t, nil)
	t.timer.ArmAfter(period)
	return t
}

// callFunc runs the plain func() in a0: the static callback behind
// NewTimer and Tick. A func value is one pointer, so boxing it into a0
// does not allocate.
func callFunc(a0, _ any) { a0.(func())() }

// The engine is the virtual-time implementation of the scheduling
// interface; clock.Wall is the real-time one.
var _ clock.Clock = (*Engine)(nil)

// Stop makes Run / RunUntil return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events that will fire: scheduled
// callbacks, lane events included, and armed timers.
func (e *Engine) Pending() int { return len(e.events) + e.queued }

// step executes the earliest event. It reports false if none remain.
func (e *Engine) step(limit Time, useLimit bool) bool {
	if len(e.events) == 0 || useLimit && e.events[0].at > limit {
		return false
	}
	next := e.events[0].ev
	if l := next.lane; l == nil {
		e.events.popMin()
	} else if n := next.next; n != nil {
		// The lane's next event takes the head's heap slot.
		e.events.replaceMin(n)
		e.queued--
		next.lane, next.next = nil, nil
	} else {
		e.events.popMin()
		l.tail = nil
		next.lane = nil
	}
	// Invariant: virtual time never runs backwards. The heap makes
	// this structural, but a corrupted comparison (or a mutated
	// timer event) would surface here first.
	if next.at < e.now {
		panic(fmt.Sprintf("sim: clock would run backwards: event at %v, now %v", next.at, e.now))
	}
	e.now = next.at
	next.afn(next.a0, next.a1)
	if next.owned {
		return true
	}
	// Back to the free list, dropping references so the pool never
	// retains callbacks or packet arguments.
	next.afn, next.a0, next.a1 = nil, nil, nil
	e.free = append(e.free, next)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(0, false) {
	}
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && e.step(t, true) {
	}
	if !e.stopped && t > e.now {
		e.now = t
	}
}

// timer is the engine's clock.Timer: a reusable one-shot timer for
// components that repeatedly schedule, cancel, and re-arm the same
// callback (retransmission timeouts, pacing gates, tickers). It owns a
// single intrusive event that is re-armed in place, so arming allocates
// nothing, and it belongs to one engine for its lifetime.
type timer struct {
	eng *Engine
	ev  event
}

func (t *timer) init(eng *Engine, fn func(a0, a1 any), a0, a1 any) {
	t.eng = eng
	t.ev.afn, t.ev.a0, t.ev.a1, t.ev.owned = fn, a0, a1, true
	t.ev.index = -1
}

// Pending reports whether the timer is armed and will fire.
func (t *timer) Pending() bool { return t.ev.index >= 0 }

// Stop disarms the timer, removing its event from the heap. Stopping an
// unarmed timer is a no-op.
func (t *timer) Stop() {
	if i := t.ev.index; i >= 0 {
		t.eng.events.remove(i)
	}
}

// ArmAt (re)schedules the timer's callback at absolute time at,
// regardless of its current state. Like CallAt, arming in the past
// panics. The re-armed event gets a fresh sequence number, so FIFO
// ordering among equal timestamps behaves exactly as if the timer had
// been cancelled and a new event created.
func (t *timer) ArmAt(at Time) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: arming timer at %v before now %v", at, e.now))
	}
	e.seq++
	t.ev.at, t.ev.seq = at, e.seq
	if i := t.ev.index; i >= 0 {
		// The heap entry's inline key must track the re-armed event.
		e.events[i].at, e.events[i].seq = at, t.ev.seq
		e.events.fix(i)
	} else {
		e.events.push(&t.ev)
	}
}

// ArmAfter arms the timer d from now; negative d is clamped to zero.
func (t *timer) ArmAfter(d Time) {
	if d < 0 {
		d = 0
	}
	t.ArmAt(t.eng.now + d)
}

// lane is the engine's clock.Lane: a FIFO of pooled events linked
// through event.next, whose head alone sits in the heap. tail is nil
// while the lane is empty.
type lane struct {
	eng  *Engine
	tail *event
	last Time // the latest time scheduled on the lane
}

// CallAt implements clock.Lane: like Engine.CallAt, and t must not be
// below the lane's previous time. Either violation panics.
func (l *lane) CallAt(t Time, fn func(a0, a1 any), a0, a1 any) {
	if t < l.last {
		panic(fmt.Sprintf("sim: lane time %v before the lane's previous %v", t, l.last))
	}
	e := l.eng
	ev := e.pooled(t, fn, a0, a1)
	ev.lane = l
	l.last = t
	if l.tail == nil {
		e.events.push(ev)
	} else {
		l.tail.next = ev
		e.queued++
	}
	l.tail = ev
}

// ticker is the engine's clock.Ticker.
type ticker struct {
	timer   timer
	period  Time
	fn      func(a0, a1 any)
	a0, a1  any
	stopped bool
}

// tickerFire is every ticker's timer callback, with the ticker in a0.
func tickerFire(a0, _ any) {
	t := a0.(*ticker)
	if t.stopped {
		return
	}
	t.fn(t.a0, t.a1)
	if !t.stopped {
		t.timer.ArmAfter(t.period)
	}
}

// Stop cancels future ticks.
func (t *ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}
