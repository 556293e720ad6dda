package sim

// The crossing-cost table: what isolation costs a thread in virtual time
// (DESIGN.md §15 derives it and works one sample by hand). Constants, not
// settings. Three are fitted to the three numbers the paper publishes for
// ff_write() (Figs. 4-6); the two marked free fit nothing published.
const (
	// TrampolineNS is one musl→Intravisor→host syscall round trip. Fig. 4:
	// Scenario 1 reads its clock through it and sits ≈ 125 ns above the
	// Baseline, whose clock read is a plain syscall.
	TrampolineNS = 125
	// GateCallNS is one call through a sealed gate: the trampoline's
	// mechanism (entry pair, save, clear, CInvoke), so its number.
	GateCallNS = TrampolineNS
	// CopyPSPerByte is moving one payload byte once, in picoseconds: the
	// stack's copy into the socket buffer in every layout, and the staging
	// copy an application cVM makes so the bytes can cross as a
	// capability. Fig. 5: uncontended Scenario 2 sits ≈ 200 ns above
	// Scenario 1 at 1448 bytes, GateCallNS of it: (200 − 125) ns / 1448 B.
	CopyPSPerByte = 52
	// WriteCallNS is ff_write's fixed part (socket lookup, send-buffer
	// append, tcp_output) under the stack mutex. Free: with the copy it
	// places the Baseline box at 250 ns, which no source here quotes.
	WriteCallNS = 175
	// FrameHoldNS is how long the main loop holds the stack mutex per
	// frame it takes off a ring — per frame, never per poll. Free.
	FrameHoldNS = 150
	// HandoffNS is what taking the stack mutex costs while another
	// compartment stands refused on it and keeps coming back: the spin
	// fails, the thread sleeps on the futex and an unlock wakes it.
	// Fig. 6: the contended mean is ≈ 19 µs, the uncontended 575 ns of it.
	HandoffNS = 18_425
)

// CopyNS is what moving n payload bytes once costs.
func CopyNS(n int) int64 { return int64(n) * CopyPSPerByte / 1000 }
