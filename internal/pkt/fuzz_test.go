package pkt

import (
	"testing"

	"bundler/internal/sim"
)

// FuzzEpochHash checks the property §4.5 depends on: the sendbox hashes
// a packet as it leaves the source site, the receivebox hashes it again
// on arrival, and the two must agree — so the hash may depend only on
// header fields the network never rewrites (IP ID, destination), never
// on transit-mutable state (queue timestamps, transport bookkeeping,
// SACK contents).
func FuzzEpochHash(f *testing.F) {
	f.Add(uint16(1), uint32(9), uint16(80), uint32(7), uint16(5000), int64(1460), int64(0), uint8(0), 1500, uint16(0), uint16(1))
	f.Add(uint16(65535), uint32(0), uint16(0), uint32(1<<31), uint16(65535), int64(-1), int64(1<<40), uint8(3), 40, uint16(65535), uint16(0))
	f.Fuzz(func(t *testing.T, ipid uint16, dstHost uint32, dstPort uint16,
		srcHost uint32, srcPort uint16, seq, ack int64, flags uint8, size int, srcSite, dstSite uint16) {
		p := &Packet{
			IPID:  ipid,
			Src:   Addr{Host: srcHost, Port: srcPort},
			Dst:   Addr{Host: dstHost, Port: dstPort},
			Proto: ProtoTCP,
			Size:  size,
			Seq:   seq,
			Ack:   ack,
			Flags: Flags(flags),
		}
		sendboxView := EpochHash(p)

		// What the network legitimately changes in flight.
		p.EnqueuedAt = 123 * sim.Millisecond
		p.Retransmit = !p.Retransmit
		p.FlowID ^= 0xDEADBEEF
		p.NSACK = 2
		p.SACK[0] = SACKBlock{Start: 1, End: 2}
		p.Ctl, p.CtlArg = CtlAck, [2]uint64{1, 2}

		if got := EpochHash(p); got != sendboxView {
			t.Fatalf("receivebox hash %#x != sendbox hash %#x after transit mutation", got, sendboxView)
		}
		// Determinism: same header, same hash.
		if again := EpochHash(p); again != sendboxView {
			t.Fatalf("hash not deterministic: %#x then %#x", sendboxView, again)
		}
		// The site ids are local routing metadata: stamping or changing
		// them must not move the epoch boundaries.
		p.Src.Site, p.Dst.Site = srcSite, dstSite
		if got := EpochHash(p); got != sendboxView {
			t.Fatalf("hash %#x changed to %#x with the site ids (%d, %d)", sendboxView, got, srcSite, dstSite)
		}
	})
}

// FuzzFlowHash checks that bucket selection is a pure function of the
// 5-tuple and perturbation key: stable under transit mutation (a flow
// must not hop SFQ buckets mid-life) and sensitive to the perturbation
// in the sense that re-keying is deterministic.
func FuzzFlowHash(f *testing.F) {
	f.Add(uint32(1), uint16(5000), uint32(2), uint16(80), uint8(0), uint64(0), uint16(0), uint16(1))
	f.Add(uint32(0), uint16(0), uint32(0), uint16(0), uint8(2), uint64(0x9E3779B97F4A7C15), uint16(65535), uint16(0))
	f.Fuzz(func(t *testing.T, srcHost uint32, srcPort uint16, dstHost uint32, dstPort uint16,
		proto uint8, perturb uint64, srcSite, dstSite uint16) {
		p := &Packet{
			Src:   Addr{Host: srcHost, Port: srcPort},
			Dst:   Addr{Host: dstHost, Port: dstPort},
			Proto: Proto(proto),
		}
		h := FlowHash(p, perturb)

		p.IPID++ // IP ID changes every packet of a flow; the bucket must not
		p.Seq, p.Ack = 77, 88
		p.Size = 999
		p.EnqueuedAt = sim.Second
		p.Retransmit = true

		if got := FlowHash(p, perturb); got != h {
			t.Fatalf("flow hash changed mid-flow: %#x -> %#x", h, got)
		}
		if again := FlowHash(p, perturb); again != h {
			t.Fatalf("flow hash not deterministic: %#x then %#x", h, again)
		}
		// The site ids are local routing metadata, not part of the
		// 5-tuple: a flow keeps its bucket however they are stamped.
		p.Src.Site, p.Dst.Site = srcSite, dstSite
		if got := FlowHash(p, perturb); got != h {
			t.Fatalf("flow hash %#x changed to %#x with the site ids (%d, %d)", h, got, srcSite, dstSite)
		}
	})
}
