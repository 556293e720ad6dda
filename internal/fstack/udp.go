package fstack

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the UDP header size.
const UDPHeaderLen = 8

// UDPHeader is a UDP header.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16
}

// PutUDPHeader marshals h into b and leaves the checksum over the
// complete segment b (header + payload) to the NIC: the field gets the
// pseudo-header seed, and the frame's mbuf the offload flag (sendIPv4).
// The NIC writes a zero sum as 0xFFFF (RFC 768).
func PutUDPHeader(b []byte, h UDPHeader, src, dst IPv4Addr) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], pseudoHeaderSeed(src, dst, ProtoUDP, int(h.Length)))
}

// ParseUDPHeader unmarshals and validates a UDP segment. A non-zero
// checksum is verified here unless the NIC already found it good
// (nicSum).
func ParseUDPHeader(b []byte, src, dst IPv4Addr, nicSum bool) (UDPHeader, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, fmt.Errorf("fstack: short UDP segment (%d bytes)", len(b))
	}
	var h UDPHeader
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	if int(h.Length) < UDPHeaderLen || int(h.Length) > len(b) {
		return UDPHeader{}, fmt.Errorf("fstack: UDP length %d outside segment", h.Length)
	}
	if cs := binary.BigEndian.Uint16(b[6:8]); cs != 0 && !nicSum {
		if transportChecksum(src, dst, ProtoUDP, b[:h.Length]) != 0 {
			return UDPHeader{}, fmt.Errorf("fstack: UDP checksum mismatch")
		}
	}
	return h, nil
}

// ICMP types.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// ICMPHeaderLen is the echo header size.
const ICMPHeaderLen = 8

// ICMPEcho is an ICMP echo request/reply.
type ICMPEcho struct {
	Type uint8
	ID   uint16
	Seq  uint16
}

// PutICMPEcho marshals h into b (which already contains the payload
// after the header) and computes the checksum over all of b.
func PutICMPEcho(b []byte, h ICMPEcho) {
	b[0] = h.Type
	b[1] = 0
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], h.Seq)
	cs := Checksum(b)
	binary.BigEndian.PutUint16(b[2:4], cs)
}

// ParseICMPEcho unmarshals and validates an ICMP echo message.
func ParseICMPEcho(b []byte) (ICMPEcho, error) {
	if len(b) < ICMPHeaderLen {
		return ICMPEcho{}, fmt.Errorf("fstack: short ICMP message (%d bytes)", len(b))
	}
	if Checksum(b) != 0 {
		return ICMPEcho{}, fmt.Errorf("fstack: ICMP checksum mismatch")
	}
	var h ICMPEcho
	h.Type = b[0]
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return h, nil
}
