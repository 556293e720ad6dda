package fstack

// ParseTCPHeader unmarshals and validates a TCP segment, returning the
// header and the data offset.
func ParseTCPHeader(b []byte, src, dst IPv4Addr) (TCPHeader, int, error) {
	return parseTCPHeader(b, src, dst, make([]SACKBlock, 0, maxSACKBlocksRx), false)
}

// sockOf is the socket behind the stack's own descriptor fd, nil if none.
func (s *Stack) sockOf(fd int) *socket {
	if f := s.sock(fd); f != nil {
		return f.sk
	}
	return nil
}

// len reports the number of descriptors held.
func (t *fdTable[T]) len() int {
	n := 0
	for _, p := range t.pages {
		n += p.live
	}
	return n
}

// each calls f for every descriptor in ascending order. f may delete
// the descriptor it is given.
func (t *fdTable[T]) each(f func(fd int, v T)) {
	var zero T
	for p := range t.pages {
		slot := t.pages[p].slot
		if slot == nil {
			continue
		}
		for i, v := range slot {
			if v != zero {
				f(p<<fdPageBits|i, v)
			}
		}
	}
}
