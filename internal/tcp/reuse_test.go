package tcp

import (
	"fmt"
	"reflect"
	"testing"

	"bundler/internal/netem"
	"bundler/internal/pkt"
	"bundler/internal/qdisc"
	"bundler/internal/sim"
)

// wirePacket is what an endpoint sets on a packet it emits, stamped with
// the emission time.
type wirePacket struct {
	at         sim.Time
	flowID     uint64
	ipid       uint16
	seq, ack   int64
	size       int
	retransmit bool
	sack       [4]SACKBlock
	nsack      uint8
}

// transferStats is one transfer's outcome, read off its endpoints at the
// sender's completion (or at the end of the run, if it never completed).
type transferStats struct {
	sent, retx, timeouts int
	acked                int64
	started, finished    sim.Time
	done, rcvDone        bool
}

// reuseCase is one sequence of transfers over one path.
type reuseCase struct {
	sizes  []int64
	conc   int    // transfers in flight at once
	pick   []byte // which finished pair the i-th reuse takes: pick[i] mod their number
	loss   float64
	jitter sim.Time
	seed   int64
}

// reusePair is the endpoints and controllers one connection slot owns.
type reusePair struct {
	s     *Sender
	r     *Receiver
	cubic Cubic
	reno  Reno
	bbr   BBR
}

// controller re-initialises the pair's controller of kind name in place.
func (p *reusePair) controller(name string) Congestion {
	switch name {
	case "reno":
		p.reno.Init()
		return &p.reno
	case "bbr":
		p.bbr.Init()
		return &p.bbr
	default:
		p.cubic.Init()
		return &p.cubic
	}
}

// runTransfers carries c.sizes over a 20 Mbit/s, 40 ms RTT path with a
// 30 kB buffer, at most c.conc at a time, the i-th with endhost CC
// EndhostCCs[i mod 3]; the forward direction loses with probability
// c.loss and delays by up to c.jitter, the ACK direction loses with
// probability c.loss/2. A completed transfer's successor starts 1 ms
// later. With reuse, it takes a finished pair (c.pick) and re-initialises
// endpoints and controller in place; without, it builds fresh ones. It
// returns every packet the endpoints emitted, each transfer's outcome,
// and the pairs finished at the end.
func runTransfers(c reuseCase, reuse bool) ([]wirePacket, []transferStats, []*reusePair) {
	eng := sim.NewEngine(c.seed)
	mux := NewMux()
	var trace []wirePacket
	tap := func(next netem.Receiver) netem.Receiver {
		return netem.NewTap(func(p *pkt.Packet) {
			trace = append(trace, wirePacket{eng.Now(), p.FlowID, p.IPID, p.Seq, p.Ack, p.Size, p.Retransmit, p.SACK, p.NSACK})
		}, next)
	}
	fwd := tap(netem.NewLink(eng, "fwd", 20e6, 20*sim.Millisecond, qdisc.NewFIFO(30000),
		netem.NewLossy(eng, c.loss, netem.NewJitter(eng, c.jitter, mux))))
	rev := tap(netem.NewLink(eng, "rev", 20e6, 20*sim.Millisecond, qdisc.NewFIFO(30000),
		netem.NewLossy(eng, c.loss/2, mux)))

	stats := make([]transferStats, len(c.sizes))
	pairs := make([]*reusePair, len(c.sizes))
	statsOf := func(p *reusePair) transferStats {
		return transferStats{p.s.DataSent, p.s.Retransmits, p.s.Timeouts, p.s.Acked(),
			p.s.StartedAt, p.s.DoneAt, p.s.Done(), p.r.Done()}
	}
	var free []*reusePair
	next := 0
	var start func()
	start = func() {
		if next == len(c.sizes) {
			return
		}
		i := next
		next++
		id, size, cc := uint64(i+1), c.sizes[i], EndhostCCs[i%len(EndhostCCs)]
		sa := pkt.Addr{Host: uint32(1000 + i), Port: 5000}
		ra := pkt.Addr{Host: uint32(100000 + i), Port: 80}
		done := func(sim.Time) {
			mux.Unregister(sa)
			mux.Unregister(ra)
			stats[i] = statsOf(pairs[i])
			free = append(free, pairs[i])
			eng.CallAfter(sim.Millisecond, func(any, any) { start() }, nil, nil)
		}
		if reuse && len(free) > 0 {
			k := int(c.pick[i%len(c.pick)]) % len(free)
			p := free[k]
			free = append(free[:k], free[k+1:]...)
			p.s.Init(eng, fwd, sa, ra, id, size, p.controller(cc), CompletionFunc(done))
			p.r.Init(eng, rev, ra, sa, id, size, nil)
			pairs[i] = p
		} else {
			p := &reusePair{}
			p.s = NewSender(eng, fwd, sa, ra, id, size, NewEndhostCC(cc), done)
			p.r = NewReceiver(eng, rev, ra, sa, id, size, nil)
			pairs[i] = p
		}
		mux.Register(sa, pairs[i].s)
		mux.Register(ra, pairs[i].r)
		pairs[i].s.Start()
	}
	for range min(max(c.conc, 1), len(c.sizes)) {
		start()
	}
	eng.RunUntil(600 * sim.Second)
	for i, p := range pairs {
		if p != nil && !p.s.Done() {
			stats[i] = statsOf(p)
		}
	}
	return trace, stats, free
}

// checkReuse runs c with fresh and with re-initialised endpoints and
// requires the same packets and the same outcomes, then that every pair
// left finished re-initialises to exactly a fresh pair's state. It
// returns the outcomes.
func checkReuse(t *testing.T, c reuseCase) []transferStats {
	t.Helper()
	freshTrace, freshStats, _ := runTransfers(c, false)
	trace, stats, finished := runTransfers(c, true)
	if len(trace) != len(freshTrace) {
		t.Errorf("reused endpoints emitted %d packets, fresh ones %d", len(trace), len(freshTrace))
	}
	for i := range min(len(trace), len(freshTrace)) {
		if trace[i] != freshTrace[i] {
			t.Fatalf("packet %d: reused %+v, fresh %+v", i, trace[i], freshTrace[i])
		}
	}
	for i := range stats {
		if stats[i] != freshStats[i] {
			t.Errorf("transfer %d (%d B): reused %+v, fresh %+v", i, c.sizes[i], stats[i], freshStats[i])
		}
	}
	for _, p := range finished {
		checkReinitState(t, p)
	}
	return stats
}

// checkReinitState re-initialises a used pair and compares it, field by
// field, with a fresh pair built from the same arguments. Only storage
// may differ: slice capacity, the scoreboard ring's length and contents
// (stale entries are never read), and which timer objects the sender
// holds, which must be stopped.
func checkReinitState(t *testing.T, p *reusePair) {
	t.Helper()
	eng := p.s.eng
	out := &netem.Sink{}
	sa, ra := pkt.Addr{Host: 1, Port: 5000}, pkt.Addr{Host: 2, Port: 80}
	// Leave an out-of-order interval behind, so the reassembly list must
	// be emptied too.
	p.r.insert(p.r.rcvNxt+pkt.MSS, p.r.rcvNxt+2*pkt.MSS)
	cc := NewCubic()
	p.s.Init(eng, out, sa, ra, 9, 5*pkt.MSS, cc, nil)
	p.r.Init(eng, out, ra, sa, 9, 5*pkt.MSS, nil)
	fs := NewSender(eng, out, sa, ra, 9, 5*pkt.MSS, cc, nil)
	fr := NewReceiver(eng, out, ra, sa, 9, 5*pkt.MSS, nil)

	skip := map[string]bool{".rtoTimer": true, ".paceTimer": true, ".sb.ring": true}
	if d := diffState("", reflect.ValueOf(p.s).Elem(), reflect.ValueOf(fs).Elem(), skip); d != "" {
		t.Errorf("re-initialised sender differs from a fresh one at Sender%s", d)
	}
	if d := diffState("", reflect.ValueOf(p.r).Elem(), reflect.ValueOf(fr).Elem(), nil); d != "" {
		t.Errorf("re-initialised receiver differs from a fresh one at Receiver%s", d)
	}
	if p.s.rtoTimer == nil || p.s.rtoTimer.Pending() || p.s.paceTimer != nil && p.s.paceTimer.Pending() {
		t.Error("re-initialised sender holds a missing or armed timer")
	}
	if n := len(p.s.sb.ring); n < len(fs.sb.ring) || n&(n-1) != 0 {
		t.Errorf("re-initialised ring has %d entries, want a power of two ≥ %d", n, len(fs.sb.ring))
	}
}

// diffState returns the path of the first field where got and want
// differ, or "". It walks every field, exported or not: slices and
// arrays compare by length and elements (capacity is storage),
// pointers, funcs and maps by identity, and interfaces by dynamic type
// and then value. Paths in skip are the caller's to check.
func diffState(path string, got, want reflect.Value, skip map[string]bool) string {
	if skip[path] {
		return ""
	}
	differ := false
	switch got.Kind() {
	case reflect.Struct:
		for i := range got.NumField() {
			if d := diffState(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i), skip); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			return path
		}
		for i := range got.Len() {
			if d := diffState(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i), skip); d != "" {
				return d
			}
		}
	case reflect.Interface:
		if got.IsNil() || want.IsNil() {
			differ = got.IsNil() != want.IsNil()
		} else if got.Elem().Type() != want.Elem().Type() {
			differ = true
		} else {
			return diffState(path, got.Elem(), want.Elem(), skip)
		}
	case reflect.Pointer, reflect.Func, reflect.Map, reflect.Chan:
		differ = got.Pointer() != want.Pointer()
	case reflect.Bool:
		differ = got.Bool() != want.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		differ = got.Int() != want.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		differ = got.Uint() != want.Uint()
	case reflect.Float32, reflect.Float64:
		differ = got.Float() != want.Float()
	case reflect.String:
		differ = got.String() != want.String()
	default:
		panic("diffState: unhandled kind " + got.Kind().String() + " at " + path)
	}
	if differ {
		return path
	}
	return ""
}

// TestEndpointReuseMatchesFresh: a sender and receiver re-initialised in
// place for each transfer emit exactly the packets, and reach exactly the
// outcomes, that fresh NewSender/NewReceiver pairs do — over 1 B, 1 MSS,
// 10 MSS and 300 MSS transfers, on a lossless, a 5 % lossy and a
// reordering path, with each pair carrying transfers of other sizes and
// controllers before. A re-initialised pair then equals a fresh one
// field by field, so a field added without a reset fails here.
func TestEndpointReuseMatchesFresh(t *testing.T) {
	sizes := []int64{1, pkt.MSS, 10 * pkt.MSS, 300 * pkt.MSS, 300 * pkt.MSS, 10 * pkt.MSS, pkt.MSS, 1,
		300 * pkt.MSS, 1, 10 * pkt.MSS, pkt.MSS}
	paths := []struct {
		name   string
		loss   float64
		jitter sim.Time
	}{
		{"lossless", 0, 0},
		{"lossy=5%", 0.05, 0},
		{"jitter=3ms", 0, 3 * sim.Millisecond},
	}
	for _, path := range paths {
		for _, conc := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/conc=%d", path.name, conc), func(t *testing.T) {
				stats := checkReuse(t, reuseCase{sizes: sizes, conc: conc, pick: []byte{0, 1, 2, 1, 0, 2},
					loss: path.loss, jitter: path.jitter, seed: 3})
				for i, st := range stats {
					if !st.done || !st.rcvDone || st.acked != sizes[i] {
						t.Errorf("transfer %d (%d B) did not complete: %+v", i, sizes[i], st)
					}
				}
			})
		}
	}
	// The controllers: a used one, re-initialised, is a fresh one.
	dirty := func(cc Congestion) {
		for i := range 50 {
			cc.OnAck(pkt.MSS, 40*sim.Millisecond, sim.Time(i+1)*sim.Millisecond)
		}
		cc.OnLoss(60 * sim.Millisecond)
		cc.OnTimeout(70 * sim.Millisecond)
		cc.OnAck(pkt.MSS, 40*sim.Millisecond, 80*sim.Millisecond)
	}
	cubic, reno, bbr, fixed := NewCubic(), NewReno(), NewBBR(), NewFixedCwnd(7)
	for _, cc := range []Congestion{cubic, reno, bbr, fixed} {
		dirty(cc)
	}
	cubic.Init()
	reno.Init()
	bbr.Init()
	fixed.Init(7)
	for _, c := range []struct{ got, want Congestion }{
		{cubic, NewCubic()}, {reno, NewReno()}, {bbr, NewBBR()}, {fixed, NewFixedCwnd(7)},
	} {
		if d := diffState("", reflect.ValueOf(c.got).Elem(), reflect.ValueOf(c.want).Elem(), nil); d != "" {
			t.Errorf("re-initialised %T differs from a fresh one at %s", c.got, d)
		}
	}
}

// FuzzEndpointReuse is TestEndpointReuseMatchesFresh's check over random
// transfer sizes, concurrency, loss, reordering, engine seed and order
// in which finished pairs are reused.
func FuzzEndpointReuse(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), []byte{0, 1, 0, 0, 1, 0, 0, 10, 1, 44}, []byte{0})
	f.Add(int64(2), uint8(5), uint8(0), uint8(3), []byte{1, 44, 0, 1, 0, 10, 1, 44, 0, 1}, []byte{2, 0, 1})
	f.Add(int64(3), uint8(0), uint8(3), uint8(2), []byte{0, 200, 0, 3, 1, 0, 0, 1}, []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, lossPct, jitterMs, conc uint8, sizes, pick []byte) {
		// Byte pairs give up to eight sizes of 1 B to 300 MSS.
		c := reuseCase{conc: 1 + int(conc)%3, pick: append([]byte{0}, pick...), seed: seed,
			loss: float64(lossPct%21) / 100, jitter: sim.Time(jitterMs%6) * sim.Millisecond}
		for i := 0; i+1 < len(sizes) && len(c.sizes) < 8; i += 2 {
			v := int64(sizes[i])<<8 | int64(sizes[i+1])
			c.sizes = append(c.sizes, 1+v*pkt.MSS/218%(300*pkt.MSS))
		}
		if len(c.sizes) == 0 {
			return
		}
		checkReuse(t, c)
	})
}
