package fstack

// ParseTCPHeader unmarshals and validates a TCP segment, returning the
// header and the data offset.
func ParseTCPHeader(b []byte, src, dst IPv4Addr) (TCPHeader, int, error) {
	return parseTCPHeader(b, src, dst, make([]SACKBlock, 0, maxSACKBlocksRx), false)
}
