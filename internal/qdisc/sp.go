package qdisc

import "bundler/internal/pkt"

// SP is class-based strict priority: classes are served in declaration
// order (index 0 first), and a lower class is never dequeued while a
// higher one is backlogged. It differs from Prio in two ways that make
// it a scheduler mode rather than a filter: the class set is shared
// with WFQ/Meter (one declaration drives all three), and the packet
// budget is shared across classes with priority push-out — a full queue
// admits a higher-priority arrival by evicting from the
// lowest-priority backlogged class, so bulk traffic can never starve
// interactive traffic of buffer space.
type SP struct {
	tally
	classes  []pktQueue
	classify Classifier
	limit    int // total packets
}

// NewSP builds a strict-priority scheduler holding at most limitPackets
// across all classes, served in the order of classes (weights are
// ignored). classify must map packets to a class index (out-of-range
// results clamp to the last, lowest-priority class).
func NewSP(limitPackets int, classes []Class, classify Classifier) *SP {
	if limitPackets <= 0 {
		panic("qdisc: SP limit must be positive")
	}
	if len(classes) == 0 {
		panic("qdisc: SP needs at least one class")
	}
	return &SP{classes: make([]pktQueue, len(classes)), classify: classify, limit: limitPackets}
}

// Enqueue implements Qdisc. When full, the arrival is admitted only if
// some strictly lower-priority class is backlogged to evict from;
// otherwise the arrival itself is the lowest-priority packet present
// and is dropped.
func (s *SP) Enqueue(p *pkt.Packet) bool {
	idx := s.classify(p)
	if idx < 0 || idx >= len(s.classes) {
		idx = len(s.classes) - 1
	}
	if s.count >= s.limit {
		s.drops++
		victim := s.lowestBacklogged()
		if victim <= idx {
			return false
		}
		s.discard(s.classes[victim].pop())
	}
	s.classes[idx].push(p)
	s.in(p)
	return true
}

func (s *SP) lowestBacklogged() int {
	for i := len(s.classes) - 1; i >= 0; i-- {
		if s.classes[i].Len() > 0 {
			return i
		}
	}
	return -1
}

// Dequeue implements Qdisc: the highest-priority backlogged class wins.
func (s *SP) Dequeue() *pkt.Packet {
	for i := range s.classes {
		if s.classes[i].Len() > 0 {
			p := s.classes[i].pop()
			s.out(p)
			return p
		}
	}
	return nil
}
