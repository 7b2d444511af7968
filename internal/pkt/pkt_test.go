package pkt

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestAddrHasNoPadding: Addr's fields fill its size exactly, so Addr is
// a plain 8-byte value that Go hashes and compares as one machine word
// (tcp.Mux's map takes the 64-bit fast path). A field that adds padding
// or grows Addr past 8 bytes fails here before it slows the mux or
// grows every Packet.
func TestAddrHasNoPadding(t *testing.T) {
	var a Addr
	fields := unsafe.Sizeof(a.Host) + unsafe.Sizeof(a.Port) + unsafe.Sizeof(a.Site)
	if size := unsafe.Sizeof(a); size != fields || size != 8 {
		t.Fatalf("unsafe.Sizeof(Addr{}) = %d, fields sum to %d: want both 8, no padding", size, fields)
	}
}

// TestPacketLayout: Packet's one- and two-byte fields share one block,
// so the struct pays a single run of padding. Packets are the bulk of a
// run's live heap (every queued, in-flight and pooled one), so a field
// added in the wrong place fails here before it grows them all.
func TestPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 176 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want at most 176", size)
	}
}

// TestQueueOrderAndUnlink: a Queue serves packets in push order with
// exact Len and Bytes throughout, and a popped packet carries no link,
// so it can be pushed again at once (here or into another Queue).
func TestQueueOrderAndUnlink(t *testing.T) {
	var q Queue
	next, want, bytes := int64(0), int64(0), 0
	push := func() {
		p := &Packet{Seq: next, Size: 100 + int(next%7)}
		next++
		bytes += p.Size
		q.Push(p)
	}
	pop := func() {
		t.Helper()
		if head := q.Peek(); head == nil || head.Seq != want {
			t.Fatalf("peek = %v, want seq %d", head, want)
		}
		p := q.Pop()
		if p.Seq != want || p.next != nil {
			t.Fatalf("pop seq %d (next %p), want seq %d and no link", p.Seq, p.next, want)
		}
		want++
		bytes -= p.Size
		if q.Len() != int(next-want) || q.Bytes() != bytes {
			t.Fatalf("after pop %d: len %d bytes %d, want %d and %d", p.Seq, q.Len(), q.Bytes(), next-want, bytes)
		}
	}
	for i := 0; i < 1000; i++ {
		push()
		push()
		pop()
	}
	for q.Len() > 0 {
		pop()
	}
	if q.Peek() != nil || q.Pop() != nil || q.Bytes() != 0 {
		t.Fatalf("drained queue: peek %v, bytes %d", q.Peek(), q.Bytes())
	}
	// A popped packet goes straight back in, behind what is queued.
	a, b := &Packet{Seq: 1}, &Packet{Seq: 2}
	q.Push(a)
	q.Push(b)
	q.Push(q.Pop())
	if q.Pop() != b || q.Pop() != a || q.Len() != 0 {
		t.Fatal("re-pushed packet not served behind the queued one")
	}
}

func TestEpochHashMatchesStdlibFNV(t *testing.T) {
	p := &Packet{IPID: 0xBEEF, Dst: Addr{Host: 0x0A000001, Port: 443}}
	h := fnv.New64a()
	h.Write([]byte{
		0xEF, 0xBE, // IPID little-endian
		0x01, 0x00, 0x00, 0x0A, // Dst.Host little-endian
		0xBB, 0x01, // Dst.Port little-endian
	})
	if got, want := EpochHash(p), h.Sum64(); got != want {
		t.Fatalf("EpochHash = %#x, want stdlib FNV-1a %#x", got, want)
	}
}

func TestEpochHashSameAtBothBoxes(t *testing.T) {
	// The hash must depend only on fields that survive transit unmodified:
	// copying a packet (as the receivebox effectively observes the same
	// header) must yield the same hash.
	p := &Packet{IPID: 7, Src: Addr{Host: 1, Port: 2}, Dst: Addr{Host: 3, Port: 4}, Seq: 100, Size: 1500}
	q := *p
	q.EnqueuedAt = 55 // mutated in the network
	if EpochHash(p) != EpochHash(&q) {
		t.Fatal("hash changed across fields that mutate in transit")
	}
}

func TestEpochHashDifferentiatesPackets(t *testing.T) {
	// Same flow, different IPID => different hash (property (iii): it must
	// distinguish individual packets, not just flows).
	a := &Packet{IPID: 1, Dst: Addr{Host: 9, Port: 80}}
	b := &Packet{IPID: 2, Dst: Addr{Host: 9, Port: 80}}
	if EpochHash(a) == EpochHash(b) {
		t.Fatal("hash failed to differentiate packets of one flow")
	}
}

func TestEpochHashIgnoresSrcAndSeq(t *testing.T) {
	// The prototype's subset is {IPID, dst IP, dst port}; TCP sequence is
	// deliberately excluded (property (iv): retransmissions get a fresh
	// IPID instead).
	a := &Packet{IPID: 5, Src: Addr{Host: 1, Port: 1}, Dst: Addr{Host: 2, Port: 2}, Seq: 0}
	b := &Packet{IPID: 5, Src: Addr{Host: 3, Port: 3}, Dst: Addr{Host: 2, Port: 2}, Seq: 1448}
	if EpochHash(a) != EpochHash(b) {
		t.Fatal("hash depends on fields outside the header subset")
	}
}

func TestFlowHashGroupsByFiveTuple(t *testing.T) {
	a := &Packet{IPID: 1, Src: Addr{Host: 1, Port: 10}, Dst: Addr{Host: 2, Port: 20}, Proto: ProtoTCP}
	b := &Packet{IPID: 99, Src: Addr{Host: 1, Port: 10}, Dst: Addr{Host: 2, Port: 20}, Proto: ProtoTCP}
	if FlowHash(a, 0) != FlowHash(b, 0) {
		t.Fatal("flow hash differs within one flow")
	}
	c := &Packet{Src: Addr{Host: 1, Port: 11}, Dst: Addr{Host: 2, Port: 20}, Proto: ProtoTCP}
	if FlowHash(a, 0) == FlowHash(c, 0) {
		t.Fatal("flow hash collides across flows (unlucky but deterministic: pick different test tuples)")
	}
}

func TestFlowHashPerturbation(t *testing.T) {
	p := &Packet{Src: Addr{Host: 1, Port: 10}, Dst: Addr{Host: 2, Port: 20}}
	if FlowHash(p, 1) == FlowHash(p, 2) {
		t.Fatal("perturbation did not change the hash")
	}
}

// Property: epoch boundary sampling with a power-of-two epoch size N has
// the subset property the paper relies on: every boundary under 2N is also
// a boundary under N (receivebox sampling with a stale, larger epoch size
// observes a strict subset).
func TestPropertyPowerOfTwoSubset(t *testing.T) {
	f := func(ipid uint16, host uint32, port uint16, shift uint8) bool {
		n := uint64(1) << (shift % 16)
		p := &Packet{IPID: ipid, Dst: Addr{Host: host, Port: port}}
		h := EpochHash(p)
		if h%(2*n) == 0 && h%n != 0 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the sampling rate under hash % N == 0 is approximately 1/N for
// uniform-ish header values.
func TestSamplingRateApproximatesEpochSize(t *testing.T) {
	const n = 64
	count := 0
	total := 200000
	for i := 0; i < total; i++ {
		p := &Packet{IPID: uint16(i), Dst: Addr{Host: uint32(i >> 16), Port: 443}}
		if EpochHash(p)%n == 0 {
			count++
		}
	}
	got := float64(count) / float64(total)
	want := 1.0 / n
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("sampling rate %.5f, want ≈ %.5f", got, want)
	}
}

func TestMSSArithmetic(t *testing.T) {
	if MSS != 1460 {
		t.Fatalf("MSS = %d, want 1460", MSS)
	}
	if HeaderBytes+MSS != MTU {
		t.Fatal("header + MSS != MTU")
	}
}
