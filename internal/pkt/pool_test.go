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
// balance; a same-pool transfer is a no-op.
func TestTransferMovesOwnership(t *testing.T) {
	a, b := &Pool{}, &Pool{}
	p := a.Get()
	Transfer(p, a) // same-pool no-op: must not touch the counters
	Transfer(p, b)
	if p.owner != b {
		t.Fatal("transfer did not retag the packet")
	}
	Put(p)
	as, aIn, aOut := a.Stats()
	bs, bIn, bOut := b.Stats()
	if aOut != 1 || aIn != 0 || as.Puts != 0 {
		t.Errorf("source pool: %+v in %d out %d, want out=1", as, aIn, aOut)
	}
	if bIn != 1 || bOut != 0 || bs.Puts != 1 {
		t.Errorf("dest pool: %+v in %d out %d, want in=1 put=1", bs, bIn, bOut)
	}
	// Transfer to nil hands the packet to the global pool.
	q := b.Get()
	Transfer(q, nil)
	if q.owner != nil {
		t.Fatal("transfer to nil did not clear ownership")
	}
	Put(q)
}
