// The wall clock: the same scheduling contract as sim.Engine, driven by
// monotonic real time. This is what lets the pilot datapath
// (internal/pilot) run the unmodified Sendbox/Receivebox/tcp/netem code
// against real UDP datagrams.
package clock

import (
	"math/rand"
	"sync"
	"time"
)

// Wall is a Clock backed by the machine's monotonic clock. A dedicated
// dispatch goroutine pops a timer heap and runs callbacks in deadline
// order, one at a time — the same single-threaded callback discipline
// as the simulator, so migrated components need no internal locking.
//
// Scheduling (CallAt/CallAfter, Timer arming) is safe from any
// goroutine; this is how external event sources (a UDP reader) inject
// work into the clock goroutine: CallAfter(0, ...) acts as a post.
//
// # Contract and documented deviations from sim.Engine
//
//   - Exactly-once, Stop-idempotent timers, negative-delay clamping,
//     and FIFO-among-equal-deadlines hold exactly as on the simulator.
//   - Ordering holds for the dispatch decision: among the events
//     currently due, the earliest (deadline, seq) runs first. Real time
//     advancing while a callback runs can make a later-scheduled event
//     due by the time the dispatcher looks again; that event still runs
//     after every earlier-deadline event, never before.
//   - Determinism is NOT provided. Callback timestamps observe real
//     scheduling jitter (timer resolution, GC, load), so two runs of
//     the same program differ. The deterministic RNG contract degrades
//     accordingly: the stream itself is seeded and reproducible, but
//     the interleaving of drawing components is not.
//   - CallAt with t in the past clamps to "now" instead of panicking:
//     on a wall clock the caller cannot atomically read Now and
//     schedule, so a past deadline is an inherent race, not a logic
//     error.
//
// # Pool ownership
//
// Packet-pool discipline under a Wall clock is the single-engine rule:
// all components of one Wall form one ownership domain (its callback
// goroutine), exactly like components of one sim.Engine. Two Walls in
// one process (the in-process pilot test) are two domains; packets
// crossing between them must do so by value (the pilot's wire codec),
// never by pointer.
type Wall struct {
	start time.Time
	rng   *rand.Rand

	mu     sync.Mutex
	events wallHeap
	seq    uint64
	kick   chan struct{}
	closed bool
	done   chan struct{}
}

type wallEvent struct {
	at  Time
	seq uint64
	fn  func(a0, a1 any)
	a0  any
	a1  any
	// tmr, when non-nil, makes this a timer event: it fires only if the
	// timer's generation still matches gen (Stop/re-arm bump the
	// generation, which is what makes cancellation and exactly-once
	// composable without removing heap entries).
	tmr *WallTimer
	gen uint64
}

// wallHeap is a binary min-heap ordered by (at, seq) — the same total
// order as the simulator's event queue.
type wallHeap []*wallEvent

func (h wallHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h wallHeap) swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *wallHeap) push(ev *wallEvent) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *wallHeap) popMin() *wallEvent {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && old[:n].less(r, l) {
			j = r
		}
		if !old[:n].less(j, i) {
			break
		}
		old[:n].swap(i, j)
		i = j
	}
	return ev
}

// NewWall returns a running wall clock whose Time zero is the moment of
// this call and whose RNG is seeded with seed. Call Close when done to
// stop the dispatch goroutine.
func NewWall(seed int64) *Wall {
	w := &Wall{
		start: time.Now(),
		rng:   rand.New(rand.NewSource(seed)),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go w.dispatch()
	return w
}

// Now returns monotonic nanoseconds since the Wall was created.
func (w *Wall) Now() Time { return Time(time.Since(w.start)) }

// Rand returns the clock's seeded random source. Use only from the
// clock goroutine (inside callbacks): rand.Rand is not safe for
// concurrent use.
func (w *Wall) Rand() *rand.Rand { return w.rng }

// CallAt schedules fn(a0, a1) at absolute time t (clamped to now if t is
// already past). Safe from any goroutine.
func (w *Wall) CallAt(t Time, fn func(a0, a1 any), a0, a1 any) {
	w.schedule(&wallEvent{at: t, fn: fn, a0: a0, a1: a1})
}

// CallAfter schedules fn(a0, a1) d from now; negative d clamps to zero
// (the same contract sim.Engine.CallAfter keeps). Safe from any
// goroutine.
func (w *Wall) CallAfter(d Time, fn func(a0, a1 any), a0, a1 any) {
	if d < 0 {
		d = 0
	}
	w.CallAt(w.Now()+d, fn, a0, a1)
}

// NewLane implements Clock: a Wall's lane is the Wall itself, so lane
// calls go straight to CallAt.
func (w *Wall) NewLane() Lane { return w }

func (w *Wall) schedule(ev *wallEvent) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.seq++
	ev.seq = w.seq
	w.events.push(ev)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Close stops the dispatcher after the currently running callback (if
// any) returns. Pending events are discarded; scheduling after Close is
// a no-op. Close blocks until the dispatch goroutine has exited and is
// idempotent.
func (w *Wall) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return
	}
	w.closed = true
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done
}

// dispatch is the clock goroutine: wait for the earliest deadline, pop
// every due event in (deadline, seq) order, run each callback without
// holding the lock.
func (w *Wall) dispatch() {
	defer close(w.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return
		}
		if len(w.events) == 0 {
			w.mu.Unlock()
			<-w.kick
			continue
		}
		next := w.events[0]
		now := w.Now()
		if next.at > now {
			w.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Duration(next.at - now))
			select {
			case <-timer.C:
			case <-w.kick:
			}
			continue
		}
		ev := w.events.popMin()
		if t := ev.tmr; t != nil {
			// A stopped or re-armed timer leaves its stale heap entry
			// behind; the generation check discards it here.
			if t.gen != ev.gen {
				w.mu.Unlock()
				continue
			}
			t.pending = false
		}
		w.mu.Unlock()
		ev.run()
	}
}

func (ev *wallEvent) run() {
	if t := ev.tmr; t != nil {
		t.fn(t.a0, t.a1)
		return
	}
	ev.fn(ev.a0, ev.a1)
}

// WallTimer implements Timer for a Wall clock. It is safe for use from
// any goroutine, though components migrated from the simulator only
// ever touch it from the clock goroutine.
type WallTimer struct {
	w      *Wall
	fn     func(a0, a1 any)
	a0, a1 any
	// gen and pending are guarded by w.mu.
	gen     uint64
	pending bool
}

// NewTimer implements Clock.
func (w *Wall) NewTimer(fn func()) Timer { return w.NewCallTimer(runThunk, fn, nil) }

// NewCallTimer implements Clock.
func (w *Wall) NewCallTimer(fn func(a0, a1 any), a0, a1 any) Timer {
	return &WallTimer{w: w, fn: fn, a0: a0, a1: a1}
}

// ArmAt implements Timer: (re)schedule the callback at absolute time at
// (clamped to now if past). An armed timer is rescheduled, exactly like
// cancel-then-arm.
func (t *WallTimer) ArmAt(at Time) {
	w := t.w
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	t.gen++
	t.pending = true
	w.seq++
	w.events.push(&wallEvent{at: at, seq: w.seq, tmr: t, gen: t.gen})
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// ArmAfter implements Timer; negative d clamps to zero.
func (t *WallTimer) ArmAfter(d Time) {
	if d < 0 {
		d = 0
	}
	t.ArmAt(t.w.Now() + d)
}

// Stop implements Timer: disarm without firing. Idempotent.
func (t *WallTimer) Stop() {
	w := t.w
	w.mu.Lock()
	t.gen++
	t.pending = false
	w.mu.Unlock()
}

// Pending implements Timer.
func (t *WallTimer) Pending() bool {
	w := t.w
	w.mu.Lock()
	p := t.pending
	w.mu.Unlock()
	return p
}

// wallTicker re-arms a WallTimer every period.
type wallTicker struct {
	timer   Timer
	period  Time
	fn      func(a0, a1 any)
	a0, a1  any
	mu      sync.Mutex
	stopped bool
}

// Tick implements Clock. period must be positive.
func (w *Wall) Tick(period Time, fn func()) Ticker { return w.CallEvery(period, runThunk, fn, nil) }

// CallEvery implements Clock. period must be positive.
func (w *Wall) CallEvery(period Time, fn func(a0, a1 any), a0, a1 any) Ticker {
	if period <= 0 {
		panic("clock: Tick period must be positive")
	}
	t := &wallTicker{period: period, fn: fn, a0: a0, a1: a1}
	t.timer = w.NewCallTimer(wallTick, t, nil)
	t.timer.ArmAfter(period)
	return t
}

// wallTick is every wall ticker's timer callback, with the ticker in a0.
func wallTick(a0, _ any) {
	t := a0.(*wallTicker)
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if stopped {
		return
	}
	t.fn(t.a0, t.a1)
	t.mu.Lock()
	if !t.stopped {
		t.timer.ArmAfter(t.period)
	}
	t.mu.Unlock()
}

// Stop cancels future ticks.
func (t *wallTicker) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
	t.timer.Stop()
}

var _ Clock = (*Wall)(nil)
