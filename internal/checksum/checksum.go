// Package checksum is the RFC 1071 internet checksum, shared by the
// stack, which verifies what no NIC checked and sums IPv4 headers, and
// the NIC model, which completes a transport checksum the stack left to
// it (L4 checksum offload) when something reads the frame's bytes.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Add adds data's 16-bit big-endian words to a running
// ones'-complement sum the way RFC 1071 §2 lets a machine do it: in its
// own byte order and its own word size, with the carries deferred.
// Loaded little-endian, every 16-bit lane holds its word byte-swapped,
// and a byte swap is a multiplication by 2^8 mod 0xFFFF, so the lanes
// still add (§2(B)); a 64-bit word is four lanes at weights ≡ 1 mod
// 0xFFFF, and 2^64 ≡ 1 too, so the carry out of each 64-bit add goes
// back in at the bottom of the next (§2(C)). The running sum enters
// byte-swapped as well (a 32-bit swap swaps both of its lanes), and the
// total is folded to 16 bits and swapped back once. An odd final byte
// is the high half of a big-endian word, the low byte of a lane. A sum
// of anything non-zero never folds to zero, so the result is the same
// ones'-complement value, at most 0xFFFF, that word-by-word addition
// gives.
func Add(sum uint32, data []byte) uint32 {
	le := binary.LittleEndian
	s, c := uint64(bits.ReverseBytes32(sum)), uint64(0)
	for len(data) >= 32 {
		s, c = bits.Add64(s, le.Uint64(data), c)
		s, c = bits.Add64(s, le.Uint64(data[8:]), c)
		s, c = bits.Add64(s, le.Uint64(data[16:]), c)
		s, c = bits.Add64(s, le.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		s, c = bits.Add64(s, le.Uint64(data), c)
		data = data[8:]
	}
	var tail uint64
	if len(data) >= 4 {
		tail = uint64(le.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		tail += uint64(le.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0])
	}
	s, c = bits.Add64(s, tail, c)
	// Fold 64 → 33 → 17 → 16 bits, each carry added back in.
	s = s>>32 + s&0xFFFFFFFF + c
	s = s>>16 + s&0xFFFF
	s = s>>16 + s&0xFFFF
	s = s>>16 + s&0xFFFF
	return uint32(bits.ReverseBytes16(uint16(s)))
}

// Finish folds the carries and complements.
func Finish(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}
