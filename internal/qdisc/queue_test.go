package qdisc

import (
	"testing"

	"bundler/internal/sim"
)

// TestPktQueueOrderAcrossCompaction pushes and pops in a pattern that
// never empties the queue, so the slice is compacted (several times)
// rather than reset, and checks that order, length and byte count
// survive.
func TestPktQueueOrderAcrossCompaction(t *testing.T) {
	var q pktQueue
	next, want, bytes := int64(0), int64(0), 0
	push := func() {
		p := mkpkt(0, 100+int(next%7))
		p.Seq = next
		next++
		bytes += p.Size
		q.push(p)
	}
	pop := func() {
		t.Helper()
		if head := q.peek(); head == nil || head.Seq != want {
			t.Fatalf("peek = %v, want seq %d", head, want)
		}
		p := q.pop()
		if p.Seq != want {
			t.Fatalf("pop seq %d, want %d", p.Seq, want)
		}
		want++
		bytes -= p.Size
		if q.Len() != int(next-want) || q.bytes != bytes {
			t.Fatalf("after pop %d: len %d bytes %d, want %d and %d", p.Seq, q.Len(), q.bytes, next-want, bytes)
		}
	}
	compactions := 0
	for i := 0; i < 1000; i++ {
		push()
		push()
		before := q.head
		pop()
		if q.head < before {
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("pattern never forced a compaction")
	}
	for q.Len() > 0 {
		pop()
	}
	if q.peek() != nil || q.pop() != nil || q.bytes != 0 {
		t.Fatalf("drained queue: peek %v, bytes %d", q.peek(), q.bytes)
	}
}

// retainedSlots sums the capacity of every packet (and WFQ tag) slice a
// discipline holds on to.
func retainedSlots(t *testing.T, q Qdisc) int {
	switch q := q.(type) {
	case *FIFO:
		return cap(q.q)
	case *CoDel:
		return cap(q.q)
	case *RED:
		return cap(q.q)
	case *PIE:
		return cap(q.q)
	case *SFQ:
		n := 0
		for _, tbl := range [][]*sfqGroup{q.groups, q.spare} {
			for _, g := range tbl {
				if g == nil {
					continue
				}
				for _, b := range g {
					if b != nil {
						n += cap(b.q)
					}
				}
			}
		}
		return n
	case *DRR:
		n := 0
		for _, f := range q.flows {
			n += cap(f.q)
		}
		return n
	case *FQCoDel:
		n := 0
		for i := range q.flows {
			n += cap(q.flows[i].q)
		}
		return n
	case *Prio:
		n := 0
		for _, b := range q.bands {
			n += retainedSlots(t, b)
		}
		return n
	case *SP:
		n := 0
		for i := range q.classes {
			n += cap(q.classes[i].q)
		}
		return n
	case *WFQ:
		n := 0
		for i := range q.classes {
			n += cap(q.classes[i].q) + cap(q.classes[i].fin)
		}
		return n
	case *Meter:
		return retainedSlots(t, q.wrapped)
	}
	t.Fatalf("retainedSlots: unhandled discipline %T", q)
	return 0
}

// TestQueueMemoryFollowsBacklog is the regression test for queues whose
// storage grew with packets served: a flow that always has a packet or
// two queued never empties its queue, so a reset-on-empty-only rule never
// reclaims the consumed prefix. Every discipline Parse can build must
// keep its retained storage bounded by the backlog.
func TestQueueMemoryFollowsBacklog(t *testing.T) {
	const rounds, maxSlots = 200000, 1024
	classes := []Class{{Name: "web", Port: 80, Weight: 1}}
	for _, spec := range []string{"fifo", "sfq", "drr", "fqcodel", "codel", "red", "pie", "prio:80", "sp:80", "wfq:80=1"} {
		for _, metered := range []bool{false, true} {
			name := spec
			if metered {
				name += "+meter"
			}
			t.Run(name, func(t *testing.T) {
				eng := sim.NewEngine(1)
				q, err := Parse(eng, spec, 1000, nil)
				if err != nil {
					t.Fatal(err)
				}
				if metered {
					q = NewMeter(q, classes)
				}
				// Three packets rotate through the queue: two stay queued,
				// the one just served is the next arrival.
				for i := 0; i < 2; i++ {
					if !q.Enqueue(mkpkt(1, 1000)) {
						t.Fatal("enqueue rejected")
					}
				}
				p := mkpkt(1, 1000)
				for i := 0; i < rounds; i++ {
					if !q.Enqueue(p) {
						t.Fatalf("round %d: enqueue rejected", i)
					}
					if p = q.Dequeue(); p == nil {
						t.Fatalf("round %d: backlogged queue returned nothing", i)
					}
					// Time moves, but too little for the AQMs to act.
					eng.RunUntil(eng.Now() + sim.Microsecond)
				}
				if q.Len() != 2 {
					t.Fatalf("len = %d, want 2", q.Len())
				}
				if n := retainedSlots(t, q); n > maxSlots {
					t.Errorf("retains %d slots for a backlog of 2 after %d packets, want at most %d", n, rounds, maxSlots)
				}
			})
		}
	}
}
