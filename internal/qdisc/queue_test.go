package qdisc

import (
	"testing"

	"bundler/internal/sim"
)

// TestQueueMemoryFollowsBacklog is the regression test for queues whose
// storage grew with packets served: a flow that always has a packet or
// two queued never empties its queue, so a reset-on-empty-only rule never
// reclaims the consumed prefix. Every discipline Parse can build, bare
// and metered, must serve such a flow without allocating at all once
// warm: its packet storage is the packets' own links, and whatever else
// it keeps (WFQ's finish tags, FQ-CoDel's flow lists) reuses its slots.
func TestQueueMemoryFollowsBacklog(t *testing.T) {
	const rounds = 50000
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
				// One warm-up call, then one measured call: the count is
				// the exact total over its rounds, not a rounded mean.
				allocs := testing.AllocsPerRun(1, func() {
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
				})
				if q.Len() != 2 {
					t.Fatalf("len = %d, want 2", q.Len())
				}
				if allocs != 0 {
					t.Errorf("%v allocations over %d packets served with a backlog of 2, want 0", allocs, rounds)
				}
			})
		}
	}
}

// TestDRROneFlowAllocFree serves one flow whose queue drains after
// every packet: DRR retires the flow's record at each dequeue and must
// reuse it at the next enqueue instead of allocating a new one.
func TestDRROneFlowAllocFree(t *testing.T) {
	const rounds = 10000
	q := NewDRR(1000)
	p := mkpkt(1, 1000)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			if !q.Enqueue(p) {
				t.Fatalf("round %d: enqueue rejected", i)
			}
			if p = q.Dequeue(); p == nil {
				t.Fatalf("round %d: queue returned nothing", i)
			}
		}
	})
	if q.Len() != 0 || len(q.flows) != 0 {
		t.Fatalf("len %d, %d flows kept, want an empty queue with no active flow", q.Len(), len(q.flows))
	}
	if allocs != 0 {
		t.Errorf("%v allocations over %d enqueue-then-dequeue rounds of one flow, want 0", allocs, rounds)
	}
}
