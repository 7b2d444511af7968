// Package pilot is the real-clock datapath: a Sendbox/Receivebox pair,
// each side on its own clock.Wall, exchanging real UDP datagrams over
// loopback — the same bundle/tcp/netem/qdisc code the simulator drives.
// RunSend and RunRecv are the two sides; RunTwin runs the identical
// topology and workload on the simulator and emits the same result
// schema. bench/layers/pilot drives all three and reports how far the
// pilot's FCTs sit from the twin's; the tests pin what must match
// exactly (the twin byte for byte, the pilot's delivered workload).
//
// The topology is the paper's dumbbell split at the two wide-area hops:
//
//	side A (RunSend)                      side B (RunRecv)
//	tcp.Senders → Sendbox → bottleneck ──UDP──▶ tap(Receivebox) → Mux
//	tcp.Mux ◀──────────────────────UDP── reverse ← tcp.Receivers
//
// The bottleneck link (rate, RTT/2, FIFO) and reverse link are emulated
// in-process on each side's wall clock — mahimahi-style — so the
// loopback socket only adds its real O(10µs) latency on top of the
// emulated propagation.
package pilot

import (
	"encoding/binary"
	"fmt"

	"bundler/internal/bundle"
	"bundler/internal/pkt"
)

// Datagram kinds. Every UDP datagram starts with one kind byte.
const (
	kindPacket = 0x01 // a serialized pkt.Packet
	kindDone   = 0x02 // sender-side workload finished; receiver may exit
)

// Payload kinds for the Packet.Payload field (Bundler control messages).
const (
	plNone        = 0
	plCtlAck      = 1
	plEpochUpdate = 2
)

// maxWire bounds a marshalled packet: kind + fixed header (62 bytes) +
// 4 SACK blocks (64) + largest payload (16).
const maxWire = 1 + 62 + 64 + 16

// marshal serializes p into buf (which must have maxWire capacity) and
// returns the used prefix. Only header/metadata fields travel — the
// emulated Size is carried as a field, not as padding bytes, because
// pacing happens on the emulated links, not the loopback socket.
func marshal(p *pkt.Packet, buf []byte) ([]byte, error) {
	b := buf[:0]
	b = append(b, kindPacket)
	b = binary.BigEndian.AppendUint16(b, p.IPID)
	b = binary.BigEndian.AppendUint32(b, p.Src.Host)
	b = binary.BigEndian.AppendUint16(b, p.Src.Port)
	b = binary.BigEndian.AppendUint32(b, p.Dst.Host)
	b = binary.BigEndian.AppendUint16(b, p.Dst.Port)
	b = append(b, byte(p.Proto))
	b = binary.BigEndian.AppendUint32(b, uint32(p.Size))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Seq))
	b = binary.BigEndian.AppendUint64(b, uint64(p.Ack))
	b = append(b, byte(p.Flags))
	b = binary.BigEndian.AppendUint64(b, p.FlowID)
	b = append(b, bool2b(p.Retransmit), bool2b(p.Tunneled))
	b = binary.BigEndian.AppendUint64(b, p.TunnelSeq)
	b = append(b, p.NSACK)
	for i := 0; i < int(p.NSACK) && i < len(p.SACK); i++ {
		b = binary.BigEndian.AppendUint64(b, uint64(p.SACK[i].Start))
		b = binary.BigEndian.AppendUint64(b, uint64(p.SACK[i].End))
	}
	switch pl := p.Payload.(type) {
	case nil:
		b = append(b, plNone)
	case *bundle.CtlAck:
		b = append(b, plCtlAck)
		b = binary.BigEndian.AppendUint64(b, pl.Hash)
		b = binary.BigEndian.AppendUint64(b, uint64(pl.BytesRcvd))
	case *bundle.CtlEpochUpdate:
		b = append(b, plEpochUpdate)
		b = binary.BigEndian.AppendUint64(b, pl.N)
	default:
		return nil, fmt.Errorf("pilot: unmarshalable payload %T", p.Payload)
	}
	return b, nil
}

// unmarshal decodes a kindPacket datagram body (kind byte already
// stripped) into a fresh pooled packet.
func unmarshal(data []byte) (*pkt.Packet, error) {
	r := reader{b: data}
	p := pkt.Get()
	p.IPID = uint16(r.u16())
	p.Src.Host = r.u32()
	p.Src.Port = uint16(r.u16())
	p.Dst.Host = r.u32()
	p.Dst.Port = uint16(r.u16())
	p.Proto = pkt.Proto(r.u8())
	p.Size = int(r.u32())
	p.Seq = int64(r.u64())
	p.Ack = int64(r.u64())
	p.Flags = pkt.Flags(r.u8())
	p.FlowID = r.u64()
	p.Retransmit = r.u8() != 0
	p.Tunneled = r.u8() != 0
	p.TunnelSeq = r.u64()
	p.NSACK = r.u8()
	if int(p.NSACK) > len(p.SACK) {
		r.bad = true
	} else {
		for i := 0; i < int(p.NSACK); i++ {
			p.SACK[i].Start = int64(r.u64())
			p.SACK[i].End = int64(r.u64())
		}
	}
	switch r.u8() {
	case plNone:
	case plCtlAck:
		p.Payload = &bundle.CtlAck{Hash: r.u64(), BytesRcvd: int64(r.u64())}
	case plEpochUpdate:
		p.Payload = &bundle.CtlEpochUpdate{N: r.u64()}
	default:
		r.bad = true
	}
	if len(r.b) != 0 {
		r.bad = true // trailing bytes: not a datagram marshal wrote
	}
	if r.bad {
		pkt.Put(p)
		return nil, fmt.Errorf("pilot: malformed packet datagram (%d bytes)", len(data))
	}
	return p, nil
}

// reader is a tiny cursor that records truncation instead of panicking
// (a garbage datagram on the socket must not kill the pilot).
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) take(n int) []byte {
	if r.bad || len(r.b) < n {
		r.bad = true
		return make([]byte, n)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) u16() uint16 { return binary.BigEndian.Uint16(r.take(2)) }
func (r *reader) u32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.BigEndian.Uint64(r.take(8)) }

func bool2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}
