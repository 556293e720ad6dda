package fstack

// TapDir tells a Tap which way a frame crossed the interface.
type TapDir int

const (
	// TapRx marks frames the stack received.
	TapRx TapDir = iota
	// TapTx marks frames the stack transmitted.
	TapTx
)

// Tap observes every frame entering or leaving a stack (tcpdump for the
// simulated world). Taps run inside the stack's input and transmit paths
// and must not call back into the stack.
type Tap interface {
	Frame(dir TapDir, tsNS int64, data []byte)
}

// SetTap installs (or, with nil, removes) the stack's frame observer.
func (s *Stack) SetTap(t Tap) {
	s.tap = t
}
