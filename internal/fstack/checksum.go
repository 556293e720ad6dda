package fstack

import "repro/internal/checksum"

// Checksum computes the RFC 1071 internet checksum of data.
func Checksum(data []byte) uint16 {
	return checksum.Finish(checksum.Add(0, data))
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

// pseudoHeaderSeed is what an outgoing segment's checksum field holds
// for the NIC to complete (L4 checksum offload, Linux's
// CHECKSUM_PARTIAL): the pseudo-header sum, folded but not complemented.
// The NIC sums the segment with the seed in place and writes the
// complement there, which is the checksum transportChecksum computes
// over the segment with a zero field.
func pseudoHeaderSeed(src, dst IPv4Addr, proto uint8, length int) uint16 {
	return ^checksum.Finish(pseudoHeaderSum(src, dst, proto, length))
}

// transportChecksum computes the TCP/UDP checksum over header+payload.
func transportChecksum(src, dst IPv4Addr, proto uint8, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	return checksum.Finish(checksum.Add(sum, segment))
}
