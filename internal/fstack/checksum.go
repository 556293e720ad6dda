package fstack

import "encoding/binary"

// Checksum computes the RFC 1071 internet checksum of data.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumBytes(0, data))
}

// sumBytes adds data's 16-bit big-endian words to a running
// ones'-complement sum, 8 bytes per load: a 64-bit big-endian word is
// four 16-bit words at weights 2^48..1, all ≡ 1 mod 0xFFFF, so adding
// its 32-bit halves into a 64-bit accumulator (no carry-out below 16 GiB
// of input) and folding at the end gives the same checksum as summing
// word by word; folding never turns a non-zero sum into zero. An odd
// final byte is the high half of a word.
func sumBytes(sum uint32, data []byte) uint32 {
	const lo32 = 0xFFFFFFFF
	be := binary.BigEndian
	s := uint64(sum)
	for len(data) >= 32 {
		a, b, c, d := be.Uint64(data), be.Uint64(data[8:]), be.Uint64(data[16:]), be.Uint64(data[24:])
		s += a>>32 + a&lo32 + b>>32 + b&lo32 + c>>32 + c&lo32 + d>>32 + d&lo32
		data = data[32:]
	}
	for len(data) >= 8 {
		a := be.Uint64(data)
		s += a>>32 + a&lo32
		data = data[8:]
	}
	if len(data) >= 4 {
		s += uint64(be.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		s += uint64(be.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		s += uint64(data[0]) << 8
	}
	s = s>>32 + s&lo32
	s = s>>32 + s&lo32
	return uint32(s)
}

// finishChecksum folds the carries and complements.
func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum starts a TCP/UDP checksum with the IPv4 pseudo header.
func pseudoHeaderSum(src, dst IPv4Addr, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// transportChecksum computes the TCP/UDP checksum over header+payload.
func transportChecksum(src, dst IPv4Addr, proto uint8, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	return finishChecksum(sumBytes(sum, segment))
}
