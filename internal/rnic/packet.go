package rnic

import (
	"encoding/binary"
	"fmt"

	"migrrdma/internal/mem"
)

// packetType is the wire-level message kind, the analogue of the BTH
// opcode field in RoCEv2.
type packetType uint8

const (
	ptData       packetType = iota // SEND / WRITE fragment
	ptReadReq                      // RDMA READ request
	ptReadResp                     // RDMA READ response fragment
	ptAtomicReq                    // CMP_SWAP / FETCH_ADD request
	ptAtomicResp                   // atomic response (original value)
	ptAck                          // cumulative acknowledgement
	ptNak                          // out-of-sequence NAK (go-back-N)
	ptRnrNak                       // receiver-not-ready NAK
)

// wireOverhead approximates Ethernet+IPv4+UDP+BTH+ICRC framing bytes per
// RoCEv2 frame.
const wireOverhead = 58

// packet is the decoded form of one fabric frame payload.
type packet struct {
	Type   packetType
	DstQPN uint32 // 24-bit destination QP
	SrcQPN uint32 // 24-bit source QP
	PSN    uint32 // message sequence number (24-bit)
	Frag   uint16 // fragment index within the message
	Last   bool   // final fragment of the message
	Opcode Opcode // original verb, for Data/ReadResp

	// One-sided parameters (RETH / AtomicETH).
	RemoteAddr mem.Addr
	RKey       uint32
	DLen       uint32 // total message length
	CompareAdd uint64
	Swap       uint64

	Imm    uint32
	HasImm bool

	// Ack/Nak fields (AETH).
	AckPSN   uint32
	Syndrome uint8

	// Payload is the fragment's bytes. A zero payload is a view of the
	// shared zero run (mem.Zeros) and crosses the wire as its length
	// alone; handlers read a Payload and never write one.
	Payload []byte
	// wire is the pooled wire buffer Payload was gathered into behind
	// the header's room, or nil. Not encoded.
	wire []byte

	// udNode is the destination fabric node for UD sends. It is not
	// encoded on the wire (routing metadata from the address handle).
	udNode string
}

// packetHeaderLen is the fixed encoded header size.
const packetHeaderLen = 1 + 3 + 3 + 3 + 2 + 1 + 1 + 8 + 4 + 4 + 8 + 8 + 4 + 1 + 3 + 1 + 2

// Flag bits of header byte 12.
const (
	hdrLast  = 1 << 0 // final fragment of the message
	hdrZeros = 1 << 1 // the payload is all zeros and is not carried
)

// body is what the frame carries behind the header: the payload, or
// nothing for a zero payload, whose length the header keeps.
func (p *packet) body() []byte {
	if mem.IsZeros(p.Payload) {
		return nil
	}
	return p.Payload
}

// encode serializes the packet into a fresh buffer.
func (p *packet) encode() []byte {
	buf := make([]byte, packetHeaderLen+len(p.body()))
	p.encodeInto(buf)
	return buf
}

// encodeInto serializes the packet into b, which must be exactly
// packetHeaderLen+len(p.body()) bytes. Every header byte is written
// unconditionally (no stale flag bytes) so b may come from a buffer
// pool without zeroing. A payload already in place behind the header
// is not copied.
func (p *packet) encodeInto(b []byte) {
	b[0] = byte(p.Type)
	put24(b[1:], p.DstQPN)
	put24(b[4:], p.SrcQPN)
	put24(b[7:], p.PSN)
	binary.BigEndian.PutUint16(b[10:], p.Frag)
	b[12] = 0
	if p.Last {
		b[12] = hdrLast
	}
	body := p.body()
	if len(body) != len(p.Payload) {
		b[12] |= hdrZeros
	}
	b[13] = byte(p.Opcode)
	binary.BigEndian.PutUint64(b[14:], uint64(p.RemoteAddr))
	binary.BigEndian.PutUint32(b[22:], p.RKey)
	binary.BigEndian.PutUint32(b[26:], p.DLen)
	binary.BigEndian.PutUint64(b[30:], p.CompareAdd)
	binary.BigEndian.PutUint64(b[38:], p.Swap)
	binary.BigEndian.PutUint32(b[46:], p.Imm)
	b[50] = 0
	if p.HasImm {
		b[50] = 1
	}
	put24(b[51:], p.AckPSN)
	b[54] = p.Syndrome
	binary.BigEndian.PutUint16(b[55:], uint16(len(p.Payload)))
	if len(body) > 0 && &body[0] != &b[packetHeaderLen] {
		copy(b[packetHeaderLen:], body)
	}
}

// decodePacket parses wire bytes into a fresh packet.
func decodePacket(b []byte) (*packet, error) {
	p := &packet{}
	if err := decodePacketInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// decodePacketInto parses wire bytes into p, overwriting every field (p
// may come from a pool). The payload aliases b, or the shared zero run
// for a zero packet.
func decodePacketInto(p *packet, b []byte) error {
	if len(b) < packetHeaderLen {
		return fmt.Errorf("rnic: short packet (%d bytes)", len(b))
	}
	*p = packet{
		Type:       packetType(b[0]),
		DstQPN:     get24(b[1:]),
		SrcQPN:     get24(b[4:]),
		PSN:        get24(b[7:]),
		Frag:       binary.BigEndian.Uint16(b[10:]),
		Last:       b[12]&hdrLast != 0,
		Opcode:     Opcode(b[13]),
		RemoteAddr: mem.Addr(binary.BigEndian.Uint64(b[14:])),
		RKey:       binary.BigEndian.Uint32(b[22:]),
		DLen:       binary.BigEndian.Uint32(b[26:]),
		CompareAdd: binary.BigEndian.Uint64(b[30:]),
		Swap:       binary.BigEndian.Uint64(b[38:]),
		Imm:        binary.BigEndian.Uint32(b[46:]),
		HasImm:     b[50] == 1,
		AckPSN:     get24(b[51:]),
		Syndrome:   b[54],
	}
	plen := int(binary.BigEndian.Uint16(b[55:]))
	if b[12]&hdrZeros != 0 {
		if len(b) != packetHeaderLen {
			return fmt.Errorf("rnic: zero packet carries %d payload bytes", len(b)-packetHeaderLen)
		}
		p.Payload = mem.Zeros(plen)
		return nil
	}
	if len(b) != packetHeaderLen+plen {
		return fmt.Errorf("rnic: packet length mismatch: have %d, header says %d", len(b)-packetHeaderLen, plen)
	}
	p.Payload = b[packetHeaderLen:]
	return nil
}

// wireSize is the on-wire frame size of the packet.
func (p *packet) wireSize() int { return wireOverhead + packetHeaderLen + len(p.Payload) }

// PeekDstQPN reads the destination QPN out of encoded wire bytes without
// a full decode. The plug-and-forward tunnel uses it to match and
// translate frames for migrating QPs.
func PeekDstQPN(b []byte) (uint32, bool) {
	if len(b) < packetHeaderLen {
		return 0, false
	}
	return get24(b[1:]), true
}

// RewriteDstQPN overwrites the destination QPN of encoded wire bytes in
// place. The destination daemon uses it to retarget a forwarded frame
// from the old (source-side) physical QPN to the restored one.
func RewriteDstQPN(b []byte, qpn uint32) bool {
	if len(b) < packetHeaderLen {
		return false
	}
	put24(b[1:], qpn)
	return true
}

// IsRequestFrame reports whether encoded wire bytes carry a
// requester-to-responder request (data, read request, atomic request).
// Only request frames are worth re-offering after a plug flush: a
// response or ack/nak belongs to the torn-down source-side connection,
// and replaying its stale AckPSN against the restored QPs could
// acknowledge data the new stream never delivered.
func IsRequestFrame(b []byte) bool {
	if len(b) < 1 {
		return false
	}
	switch packetType(b[0]) {
	case ptData, ptReadReq, ptAtomicReq:
		return true
	}
	return false
}

// WireSizeOf is the on-wire frame size for encoded packet bytes, used
// when a forwarded frame is reconstructed from its wire bytes. A zero
// packet's size counts the payload its header declares.
func WireSizeOf(b []byte) int {
	if len(b) == packetHeaderLen && b[12]&hdrZeros != 0 {
		return wireOverhead + packetHeaderLen + int(binary.BigEndian.Uint16(b[55:]))
	}
	return wireOverhead + len(b)
}

func put24(b []byte, v uint32) {
	b[0] = byte(v >> 16)
	b[1] = byte(v >> 8)
	b[2] = byte(v)
}

func get24(b []byte) uint32 {
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
}

// psnAdd advances a 24-bit PSN.
func psnAdd(psn, n uint32) uint32 { return (psn + n) & 0xFFFFFF }

// psnLess compares PSNs modulo 2^24 with the usual serial-number
// arithmetic (a window of half the space).
func psnLess(a, b uint32) bool {
	return (b-a)&0xFFFFFF != 0 && (b-a)&0xFFFFFF < 1<<23
}
