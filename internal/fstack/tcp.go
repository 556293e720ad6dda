package fstack

import (
	"encoding/binary"
	"fmt"
)

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// TCPHeaderLen is the option-less header size.
const TCPHeaderLen = 20

// tsOptionLen is the timestamps option including the two NOPs that align
// it: 1+1+10 = 12 bytes. Carrying it on every segment is what turns the
// 1460-byte MSS into 1448 bytes of payload per frame — and the
// 941 Mbit/s goodput ceiling the paper's Table II reports for a
// saturated single port.
const tsOptionLen = 12

// MSSDefault is the MSS we advertise: MTU minus IP and TCP base headers.
const MSSDefault = MTU - IPv4HeaderLen - TCPHeaderLen // 1460

// MaxSegData is the real payload per segment once timestamps are on.
const MaxSegData = MSSDefault - tsOptionLen // 1448

// minMSS is the smallest MSS option a handshake accepts; a smaller one is
// raised to it, so every connection sends a positive payload per segment
// and congestion control never divides by a zero MSS (FreeBSD's
// tcp_minmss, 216).
const minMSS = 216

// MaxSACKBlocks is how many SACK blocks fit next to the timestamps
// option: 40 bytes of option space minus 12 (TS) minus 4 (2 NOPs +
// kind/len) leaves room for exactly three 8-byte blocks, which is the
// RFC 2018 arithmetic every timestamp-enabled stack lands on.
const MaxSACKBlocks = 3

// maxSACKBlocksRx is how many SACK blocks a peer may send: with
// timestamps off the option has the whole 40 bytes to itself, and
// (40-2)/8 leaves room for four (RFC 2018 §3). No legal header carries
// more, whatever mix of options it spends its space on.
const maxSACKBlocksRx = 4

// MaxWScale caps the window-scale shift (RFC 7323 §2.3).
const MaxWScale = 14

// SACKBlock is one [Start, End) received run reported in a SACK option.
type SACKBlock struct {
	Start uint32
	End   uint32
}

// TCPHeader is a TCP header with the options this stack uses: MSS,
// window scale and SACK-permitted on SYNs; timestamps and SACK blocks
// afterwards.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16

	// MSS option (SYN segments only); zero = absent.
	MSS uint16
	// Window-scale option (SYN segments only); HasWS controls presence.
	HasWS  bool
	WScale uint8
	// SACK-permitted option (SYN segments only).
	SACKPermitted bool
	// SACK option: up to MaxSACKBlocks received runs (pure ACKs only —
	// a full-MSS data segment has no option space left for them).
	SACK []SACKBlock
	// Timestamps option; HasTS controls presence.
	HasTS bool
	TSVal uint32
	TSEcr uint32
}

// encodedLen returns the header length including options, padded to 4.
func (h *TCPHeader) encodedLen() int {
	n := TCPHeaderLen
	if h.MSS != 0 {
		n += 4
	}
	if h.HasWS {
		n += 4 // NOP + kind(3) len(3) shift
	}
	if h.SACKPermitted {
		n += 4 // NOP NOP + kind(4) len(2)
	}
	if h.HasTS {
		n += tsOptionLen
	}
	if len(h.SACK) > 0 {
		n += 4 + 8*len(h.SACK) // NOP NOP + kind(5) len + blocks
	}
	return n
}

// PutTCPHeader marshals h into b (which must already hold the payload at
// b[h.encodedLen():length]) and leaves the checksum over b[:length] to
// the NIC: the field gets the pseudo-header seed, and the frame's mbuf
// the offload flag (sendIPv4). It returns the header length.
func PutTCPHeader(b []byte, h TCPHeader, src, dst IPv4Addr, length int) int {
	hl := h.encodedLen()
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = uint8(hl/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	b[16], b[17] = 0, 0 // checksum
	b[18], b[19] = 0, 0 // urgent
	off := TCPHeaderLen
	if h.MSS != 0 {
		b[off] = 2 // kind MSS
		b[off+1] = 4
		binary.BigEndian.PutUint16(b[off+2:off+4], h.MSS)
		off += 4
	}
	if h.HasWS {
		b[off] = 1   // NOP
		b[off+1] = 3 // kind window scale
		b[off+2] = 3
		b[off+3] = h.WScale
		off += 4
	}
	if h.SACKPermitted {
		b[off] = 1 // NOP
		b[off+1] = 1
		b[off+2] = 4 // kind SACK-permitted
		b[off+3] = 2
		off += 4
	}
	if h.HasTS {
		b[off] = 1 // NOP
		b[off+1] = 1
		b[off+2] = 8 // kind timestamps
		b[off+3] = 10
		binary.BigEndian.PutUint32(b[off+4:off+8], h.TSVal)
		binary.BigEndian.PutUint32(b[off+8:off+12], h.TSEcr)
		off += tsOptionLen
	}
	if len(h.SACK) > 0 {
		b[off] = 1 // NOP
		b[off+1] = 1
		b[off+2] = 5 // kind SACK
		b[off+3] = uint8(2 + 8*len(h.SACK))
		off += 4
		for _, blk := range h.SACK {
			binary.BigEndian.PutUint32(b[off:off+4], blk.Start)
			binary.BigEndian.PutUint32(b[off+4:off+8], blk.End)
			off += 8
		}
	}
	binary.BigEndian.PutUint16(b[16:18], pseudoHeaderSeed(src, dst, ProtoTCP, length))
	return hl
}

// parseTCPHeader unmarshals and validates a TCP segment, returning the
// header and the data offset. The checksum is verified here unless the
// NIC already found it good (nicSum). The caller owns the backing for the
// SACK blocks (appended to sack[:0], which the header's SACK field then
// aliases), so the input path parses a SACK-bearing ACK without
// allocating. It never appends past cap(sack): blocks beyond it are
// ignored, and a backing of maxSACKBlocksRx holds every block a legal
// header can carry.
func parseTCPHeader(b []byte, src, dst IPv4Addr, sack []SACKBlock, nicSum bool) (TCPHeader, int, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, 0, fmt.Errorf("fstack: short TCP segment (%d bytes)", len(b))
	}
	hl := int(b[12]>>4) * 4
	if hl < TCPHeaderLen || hl > len(b) {
		return TCPHeader{}, 0, fmt.Errorf("fstack: bad TCP data offset %d", hl)
	}
	if !nicSum && transportChecksum(src, dst, ProtoTCP, b) != 0 {
		return TCPHeader{}, 0, fmt.Errorf("fstack: TCP checksum mismatch")
	}
	h := TCPHeader{SACK: sack[:0]}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])

	// Options.
	opts := b[TCPHeaderLen:hl]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // NOP
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return TCPHeader{}, 0, fmt.Errorf("fstack: malformed TCP option")
			}
			body := opts[:opts[1]]
			switch body[0] {
			case 2: // MSS
				if len(body) == 4 {
					h.MSS = binary.BigEndian.Uint16(body[2:4])
				}
			case 3: // window scale
				if len(body) == 3 {
					h.HasWS = true
					h.WScale = min(body[2], MaxWScale)
				}
			case 4: // SACK-permitted
				if len(body) == 2 {
					h.SACKPermitted = true
				}
			case 5: // SACK blocks
				for rest := body[2:]; len(rest) >= 8 && len(h.SACK) < cap(h.SACK); rest = rest[8:] {
					h.SACK = append(h.SACK, SACKBlock{
						Start: binary.BigEndian.Uint32(rest[0:4]),
						End:   binary.BigEndian.Uint32(rest[4:8]),
					})
				}
			case 8: // timestamps
				if len(body) == 10 {
					h.HasTS = true
					h.TSVal = binary.BigEndian.Uint32(body[2:6])
					h.TSEcr = binary.BigEndian.Uint32(body[6:10])
				}
			}
			opts = opts[opts[1]:]
		}
	}
	return h, hl, nil
}

// Sequence-number arithmetic (RFC 793 modular comparison).

func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }
func seqMax(a, b uint32) uint32 {
	if seqGT(a, b) {
		return a
	}
	return b
}
