package pkt

import "testing"

// TestPoolRoundTrip checks a shard pool reuses its own storage and the
// counters track it.
func TestPoolRoundTrip(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	if p.owner != pl {
		t.Fatal("pool-issued packet not tagged with its owner")
	}
	Put(p) // package-level Put must route back to the owning pool
	q := pl.Get()
	if q != p {
		t.Error("pool did not reuse the released packet")
	}
	s, in, out := pl.Stats()
	if s.Gets != 2 || s.Puts != 1 || s.News != 1 || in != 0 || out != 0 {
		t.Errorf("stats = %+v in %d out %d, want 2 gets / 1 put / 1 new", s, in, out)
	}
	pl.Put(q)
}

// TestPoolNilDelegatesToGlobal: components hold an optional *Pool and
// call Get unconditionally; the nil receiver must behave like pkt.Get.
func TestPoolNilDelegatesToGlobal(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || p.owner != nil {
		t.Fatalf("nil pool Get: got %+v, want an unowned global packet", p)
	}
	Put(p)
}

// TestPoolGlobalCountersTick: the benchmark (bench/) prices runs by
// differencing the global counters, so per-shard traffic must tick them.
func TestPoolGlobalCountersTick(t *testing.T) {
	before := Stats()
	pl := &Pool{}
	p := pl.Get()
	pl.Put(p)
	after := Stats()
	if after.Gets-before.Gets != 1 || after.Puts-before.Puts != 1 {
		t.Errorf("global counters did not tick for pool traffic: %+v -> %+v", before, after)
	}
}

// TestPoolOwnershipPanics pins the misuse panics: foreign release,
// double release, transfer of a released packet.
func TestPoolOwnershipPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a, b := &Pool{}, &Pool{}
	p := a.Get()
	mustPanic("foreign release", func() { b.Put(p) })
	a.Put(p)
	mustPanic("double release", func() { a.Put(p) })
	mustPanic("double release via package Put", func() { Put(p) })
	mustPanic("transfer of released packet", func() { Transfer(p, b) })
}

// TestTransferMovesOwnership checks the barrier hand-off: after a
// Transfer, release routes to the new pool and the xfer counters
// balance; a same-pool transfer is a no-op. The packets span more than
// one slab, so slab-carved storage still routes each packet by its own
// owner tag.
func TestTransferMovesOwnership(t *testing.T) {
	const n = 2*pktSlab + 5
	a, b := &Pool{}, &Pool{}
	ps := make([]*Packet, n)
	for i := range ps {
		ps[i] = a.Get()
	}
	moved := 0
	for i, p := range ps {
		Transfer(p, a) // same-pool no-op: must not touch the counters
		if i%2 == 0 {
			Transfer(p, b)
			moved++
			if p.owner != b {
				t.Fatalf("transfer did not retag packet %d", i)
			}
		}
	}
	for _, p := range ps {
		Put(p)
	}
	as, aIn, aOut := a.Stats()
	bs, bIn, bOut := b.Stats()
	if aOut != int64(moved) || aIn != 0 || as.Puts != int64(n-moved) {
		t.Errorf("source pool: %+v in %d out %d, want out=%d put=%d", as, aIn, aOut, moved, n-moved)
	}
	if bIn != int64(moved) || bOut != 0 || bs.Puts != int64(moved) {
		t.Errorf("dest pool: %+v in %d out %d, want in=put=%d", bs, bIn, bOut, moved)
	}
	for i, p := range ps {
		want := a
		if i%2 == 0 {
			want = b
		}
		if p.owner != want || !p.pooled {
			t.Fatalf("packet %d released to the wrong pool or not released", i)
		}
	}
	// Transfer to nil hands the packet to the global pool.
	q := b.Get()
	Transfer(q, nil)
	if q.owner != nil {
		t.Fatal("transfer to nil did not clear ownership")
	}
	Put(q)
}

// TestPoolSlabAllocs pins slab carving: a fresh pool's first 100 Gets
// allocate one slab per pktSlab packets, while News still counts every
// packet.
func TestPoolSlabAllocs(t *testing.T) {
	const runs, gets = 10, 100
	pools := make([]*Pool, runs+1) // AllocsPerRun adds a warm-up run
	for i := range pools {
		pools[i] = &Pool{}
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		pl := pools[next]
		next++
		for i := 0; i < gets; i++ {
			pl.Get()
		}
	}); n > (gets+pktSlab-1)/pktSlab {
		t.Errorf("%d fresh Gets: %.0f allocations, want ≤ %d", gets, n, (gets+pktSlab-1)/pktSlab)
	}
	for i, pl := range pools {
		if s, _, _ := pl.Stats(); s.News != gets {
			t.Fatalf("pool %d: News = %d, want %d", i, s.News, gets)
		}
	}
}
