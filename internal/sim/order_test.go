package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bundler/internal/clock"
)

// refEvent and refQueue are the reference the engine is tested against:
// every scheduled callback in one slice kept sorted by (at, seq), a
// stopped timer's entry marked and skipped when popped. They are
// deliberately naive — do not optimise them.
type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

type refQueue struct {
	now    Time
	seq    uint64
	events []*refEvent
	timers []*refEvent // each timer's live arm; nil while unarmed
	fire   func(id int)
}

func (r *refQueue) schedule(at Time, id int) *refEvent {
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, id: id}
	i := sort.Search(len(r.events), func(i int) bool {
		e := r.events[i]
		return e.at > at || e.at == at && e.seq > ev.seq
	})
	r.events = slices.Insert(r.events, i, ev)
	return ev
}

func (r *refQueue) Now() Time                    { return r.now }
func (r *refQueue) callAt(t Time, id int)        { r.schedule(t, id) }
func (r *refQueue) laneAt(_ int, t Time, id int) { r.schedule(t, id) }
func (r *refQueue) timerPending(k int) bool      { return r.timers[k] != nil }

func (r *refQueue) arm(k int, at Time) {
	r.stop(k)
	r.timers[k] = r.schedule(at, timerID(k))
}

func (r *refQueue) stop(k int) {
	if ev := r.timers[k]; ev != nil {
		ev.cancelled = true
		r.timers[k] = nil
	}
}

func (r *refQueue) Pending() int {
	n := 0
	for _, ev := range r.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

func (r *refQueue) RunUntil(t Time) {
	for len(r.events) > 0 && r.events[0].at <= t {
		ev := r.events[0]
		r.events = r.events[1:]
		if ev.cancelled {
			continue
		}
		r.now = ev.at
		if ev.id < 0 {
			r.timers[-ev.id-1] = nil
		}
		r.fire(ev.id)
	}
	if t > r.now {
		r.now = t
	}
}

// engineQueue drives an Engine through the same operations.
type engineQueue struct {
	*Engine
	m      *orderModel
	lanes  []clock.Lane
	timers []clock.Timer
}

func engineFire(a0, a1 any) { a0.(*orderModel).fire(a1.(int)) }

func (q *engineQueue) callAt(t Time, id int)        { q.CallAt(t, engineFire, q.m, id) }
func (q *engineQueue) laneAt(l int, t Time, id int) { q.lanes[l].CallAt(t, engineFire, q.m, id) }
func (q *engineQueue) arm(k int, at Time)           { q.timers[k].ArmAt(at) }
func (q *engineQueue) stop(k int)                   { q.timers[k].Stop() }
func (q *engineQueue) timerPending(k int) bool      { return q.timers[k].Pending() }

// orderQueue is what the op stream drives: the engine or the reference.
type orderQueue interface {
	Now() Time
	callAt(t Time, id int)
	laneAt(l int, t Time, id int)
	arm(k int, at Time)
	stop(k int)
	timerPending(k int) bool
	Pending() int
	RunUntil(t Time)
}

const (
	orderLanes  = 4
	orderTimers = 8
)

// timerID is the fire-sequence ID of timer k; callbacks have IDs ≥ 1.
func timerID(k int) int { return -k - 1 }

// orderModel records one queue's fire sequence and makes some firings
// schedule more work, so lane promotion and re-arming also happen from
// inside callbacks. Both queues run the same model, so they schedule
// the same events in the same order and draw the same sequence numbers.
type orderModel struct {
	q        orderQueue
	laneLast [orderLanes]Time
	nextID   int
	fired    []int
}

func (m *orderModel) call(t Time) {
	m.nextID++
	m.q.callAt(t, m.nextID)
}

func (m *orderModel) lane(l int, d Time) {
	t := max(m.laneLast[l], m.q.Now()) + d
	m.laneLast[l] = t
	m.nextID++
	m.q.laneAt(l, t, m.nextID)
}

func (m *orderModel) fire(id int) {
	m.fired = append(m.fired, id)
	now := m.q.Now()
	switch {
	case id < 0:
		if k := -id - 1; k%2 == 0 { // even timers re-arm themselves
			m.q.arm(k, now+Time(k+1))
		}
	case id%3 == 0 && id%2 == 0:
		m.lane(id/3%orderLanes, Time(id%4))
	case id%3 == 0:
		m.call(now + Time(id%5))
	}
}

func newOrderModels() (eng, ref *orderModel) {
	e := &engineQueue{Engine: NewEngine(1)}
	eng = &orderModel{q: e}
	e.m = eng
	for range orderLanes {
		e.lanes = append(e.lanes, e.NewLane())
	}
	for k := range orderTimers {
		e.timers = append(e.timers, e.NewTimer(func() { eng.fire(timerID(k)) }))
	}
	r := &refQueue{timers: make([]*refEvent, orderTimers)}
	ref = &orderModel{q: r}
	r.fire = ref.fire
	return eng, ref
}

// runEngineOps drives the engine and the reference in lock-step through
// a byte-coded op stream and fails on the first difference in fire
// sequence, Now, Pending or a timer's Pending. The first byte scales
// scheduling delays against RunUntil's steps, which sets how many
// events stay pending. It returns the number of operations run.
func runEngineOps(t testing.TB, ops []byte) int {
	eng, ref := newOrderModels()
	e := eng.q.(*engineQueue)
	pos := 0
	next := func() int {
		if pos >= len(ops) {
			return 0
		}
		b := ops[pos]
		pos++
		return int(b)
	}
	scale := Time(1 + next()%64)
	nops := 0
	for pos < len(ops) {
		nops++
		op, arg := next()%8, next()
		var do func(m *orderModel)
		switch op {
		case 0, 1:
			do = func(m *orderModel) { m.call(m.q.Now() + scale*Time(arg%16)) }
		case 2, 3:
			do = func(m *orderModel) { m.lane(arg%orderLanes, scale*Time(arg/orderLanes%4)) }
		case 4:
			do = func(m *orderModel) { m.q.arm(arg%orderTimers, m.q.Now()+scale*Time(arg/orderTimers%32)) }
		case 5:
			do = func(m *orderModel) { m.q.stop(arg % orderTimers) }
		case 6:
			if k := arg % orderTimers; eng.q.timerPending(k) != ref.q.timerPending(k) {
				t.Fatalf("op %d: timer %d Pending = %v, reference %v", nops, k, eng.q.timerPending(k), ref.q.timerPending(k))
			}
			do = func(*orderModel) {}
		default:
			do = func(m *orderModel) { m.q.RunUntil(m.q.Now() + Time(arg%24)) }
		}
		do(eng)
		do(ref)
		if !slices.Equal(eng.fired, ref.fired) {
			i := 0
			for i < min(len(eng.fired), len(ref.fired)) && eng.fired[i] == ref.fired[i] {
				i++
			}
			t.Fatalf("op %d (code %d): fire sequences part at position %d: engine %v, reference %v",
				nops, op, i, eng.fired[i:min(i+8, len(eng.fired))], ref.fired[i:min(i+8, len(ref.fired))])
		}
		if eng.q.Now() != ref.q.Now() || eng.q.Pending() != ref.q.Pending() {
			t.Fatalf("op %d (code %d): Now/Pending = %v/%d, reference %v/%d",
				nops, op, eng.q.Now(), eng.q.Pending(), ref.q.Now(), ref.q.Pending())
		}
		checkHeap(t, nops, e.Engine)
		eng.fired, ref.fired = eng.fired[:0], ref.fired[:0]
	}
	return nops
}

// checkHeap asserts the engine's own invariants: every entry's back-index
// and inline key match its event, and each lane has exactly its head in
// the heap.
func checkHeap(t testing.TB, nops int, e *Engine) {
	heads := map[*lane]bool{}
	for i, h := range e.events {
		if h.ev.index != i || h.at != h.ev.at || h.seq != h.ev.seq {
			t.Fatalf("op %d: heap entry %d (%v, %d) holds event at index %d (%v, %d)", nops, i, h.at, h.seq, h.ev.index, h.ev.at, h.ev.seq)
		}
		if i > 0 && h.before(&e.events[(i-1)/2]) {
			t.Fatalf("op %d: heap entry %d sorts before its parent", nops, i)
		}
		if l := h.ev.lane; l != nil {
			if heads[l] {
				t.Fatalf("op %d: a lane has two events in the heap", nops)
			}
			heads[l] = true
		}
	}
	queued := 0
	for _, h := range e.events {
		for ev := h.ev.next; ev != nil; ev = ev.next {
			queued++
		}
	}
	if queued != e.queued {
		t.Fatalf("op %d: %d events wait in lanes, the engine counts %d", nops, queued, e.queued)
	}
}

// TestEngineMatchesReference is the differential test: generated op
// streams, from a handful of pending events to a few hundred.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	total := 0
	for run := 0; run < 30; run++ {
		ops := make([]byte, 8000)
		rng.Read(ops)
		ops[0] = byte(run * 9) // scale from 1 to 64
		total += runEngineOps(t, ops)
	}
	if total < 100_000 {
		t.Fatalf("only %d operations generated, want ≥ 100000", total)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 2, 5, 2, 9, 0, 0, 7, 20})                        // ties among plain and lane events
	f.Add([]byte{40, 4, 1, 4, 9, 5, 1, 6, 1, 4, 17, 7, 200, 6, 1})         // arm, stop, re-arm
	f.Add([]byte{63, 2, 0, 3, 4, 2, 8, 3, 12, 7, 23, 7, 23, 7, 23, 0, 45}) // lanes drained across steps
	f.Fuzz(func(t *testing.T, ops []byte) {
		runEngineOps(t, ops)
	})
}
