package nic

import (
	"encoding/binary"

	"repro/internal/checksum"
)

// PendingSum is a transport checksum a port's TX path left to the wire
// (CMD.IC on the legacy descriptor): the 16-bit field at offset CSO
// holds the pseudo-header sum the stack wrote there, and the bytes from
// CSS to the end of the frame still have to be summed into it (RFC
// 1071). The device models the checksum engine without running it: a
// frame that crosses the wire unedited reaches the far port tagged, and
// the far port reports its checksum good without summing it. The bytes
// are only summed where something reads them — a port's RX tap, or an
// endpoint that is not a port (Settle). The zero value marks a frame
// whose bytes are final.
type PendingSum struct{ css, cso uint8 }

// txSum is the sum a descriptor asks for: CSS and CSO as written, or
// none when either lies outside the frame (the engine inserts nothing).
func txSum(css, cso byte, length int) PendingSum {
	if int(css) >= length || int(cso)+2 > length {
		return PendingSum{}
	}
	return PendingSum{css: css, cso: cso}
}

// fill writes the real checksum into data at CSO. It runs once per
// frame at most: afterwards the field no longer holds the seed. A zero
// result in a UDP datagram (IPv4 protocol 17, as the RSS classifier
// reads it) goes on the wire as 0xFFFF: RFC 768's zero means "no
// checksum".
func (s PendingSum) fill(data []byte) {
	if s == (PendingSum{}) {
		return
	}
	c := checksum.Finish(checksum.Add(0, data[s.css:]))
	if c == 0 && len(data) > ipHeaderOff+9 && data[ipHeaderOff+9] == protoUDP {
		c = 0xFFFF
	}
	binary.BigEndian.PutUint16(data[s.cso:], c)
}

// rxStatus is the status bit stepRX writes back for the frame: TCPCS
// (TCPE clear) for one that crossed unedited with its sum pending,
// nothing — not checked — for any other.
func (s PendingSum) rxStatus() byte {
	if s == (PendingSum{}) {
		return 0
	}
	return RxStatTCPCS
}

// Settle makes a frame's bytes final: it fills a pending sum into data
// and returns the zero PendingSum, so the frame travels on untagged and
// its receiver verifies it in software. Whatever reads a pending
// frame's checksum field or edits its bytes takes the frame through
// Settle first.
func (s PendingSum) Settle(data []byte) PendingSum {
	s.fill(data)
	return PendingSum{}
}
