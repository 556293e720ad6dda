package fstack

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hostos"
	"repro/internal/nic"
	"repro/internal/sim"
)

// scriptWire is the package's one test conduit, between two ports (end
// 0 and end 1) or a port and a script playing the peer. Its rules drop,
// delay or rewrite the frames they select; it injects hand-built frames
// at virtual instants, and with record set keeps a settled copy of every
// frame. A frame no rule delays is delivered at once with the sum its
// sender left pending; a delayed one is held on the wire until due, so
// any number may be in flight. A frame toward an unattached end is freed.
type scriptWire struct {
	clk    *sim.VClock
	ends   [2]*nic.Port
	rules  []*wireRule
	record bool
	log    []wireFrame
	held   [2][]dueFrame // toward each end, in due order
	isn    [2]uint32     // each end's ISN: the sequence number of its latest SYN
	cur    wireFrame     // the frame the rules read: a field, so Carry allocates nothing
	sack   [maxSACKBlocksRx]SACKBlock
}

// The ends a rule hears: stack A's (end 0), stack B's (end 1); 0 is both.
const (
	fromA = 1 << iota
	fromB
)

// segKind is the kind of frame a rule selects.
type segKind uint8

const (
	anyFrame segKind = iota // every frame, ARP included
	tcpSeg                  // a TCP segment
	bareSeg                 // a TCP segment without payload
	dataSeg                 // a TCP segment with payload
)

// wireRule selects frames and acts on each one it selects. The rules are
// tried in order; a drop ends the walk.
type wireRule struct {
	from  uint8 // fromA, fromB, or 0 for both
	kind  segKind
	flags uint8                   // TCP flags that must all be set
	when  func(f *wireFrame) bool // and this must hold; nil always does
	nth   int                     // act on the nth frame selected only; 0 on each
	seen  int                     // frames selected so far

	drop  bool
	delay func(f *wireFrame) int64 // hold the frame this many ns past its readyAt
	// edit rewrites f.data in place: the pending sum is settled first and
	// the checksums repaired after, unless corrupt, which leaves the
	// frame for its receiver to find bad.
	edit    func(f *wireFrame)
	corrupt bool
}

func (r *wireRule) selects(f *wireFrame) bool {
	if r.from != 0 && r.from != 1<<f.from || r.kind != anyFrame && !f.tcp ||
		r.kind == bareSeg && f.n > 0 || r.kind == dataSeg && f.n == 0 ||
		f.h.Flags&r.flags != r.flags || r.when != nil && !r.when(f) {
		return false
	}
	r.seen++
	return r.nth == 0 || r.seen == r.nth
}

// wireFrame is one frame on the wire and, for a TCP segment, its headers
// and payload length.
type wireFrame struct {
	from    int   // the end that sent it
	at      int64 // when it entered the wire
	readyAt int64 // when its last bit reaches the far end, undelayed
	data    []byte
	tcp     bool
	ip      IPv4Header
	h       TCPHeader
	n       int
	dropped bool
}

// dueFrame is a delayed frame on its way to its due instant.
type dueFrame struct {
	data []byte
	due  int64
	sum  nic.PendingSum
}

// attach cables ports a (end 0) and b (end 1) through the wire; with b
// nil, end 1 is a script's.
func (w *scriptWire) attach(clk *sim.VClock, a, b *nic.Port) {
	w.clk, w.ends = clk, [2]*nic.Port{a, b}
	a.Attach(w, 0)
	if b != nil {
		b.Attach(w, 1)
	}
}

// note parses a frame entering the wire into w.cur and learns an ISN
// from a SYN.
func (w *scriptWire) note(from int, at, readyAt int64, data []byte) *wireFrame {
	f := &w.cur
	*f = wireFrame{from: from, at: at, readyAt: readyAt, data: data}
	f.ip, f.h, f.n, f.tcp = wireSeg(data, w.sack[:])
	if f.tcp && f.h.Flags&TCPSyn != 0 {
		w.isn[from] = f.h.Seq
	}
	return f
}

// keep records a settled copy of f, leaving the frame its pending sum.
func (w *scriptWire) keep(f *wireFrame, sum nic.PendingSum) {
	if !w.record {
		return
	}
	k := *f
	k.data = slices.Clone(f.data)
	sum.Settle(k.data)
	k.h.SACK = slices.Clone(f.h.SACK)
	w.log = append(w.log, k)
}

func (w *scriptWire) Carry(from int, data []byte, readyAt int64, sum nic.PendingSum) {
	f := w.note(from, w.clk.Now(), readyAt, data)
	due := readyAt
	for _, r := range w.rules {
		if f.dropped {
			break
		}
		if !r.selects(f) {
			continue
		}
		switch {
		case r.drop:
			f.dropped = true
		case r.delay != nil:
			due += r.delay(f)
		case r.edit != nil:
			sum = sum.Settle(data)
			r.edit(f)
			if !r.corrupt {
				repairChecksums(data)
			}
			f.ip, f.h, f.n, f.tcp = wireSeg(data, w.sack[:])
		}
	}
	w.keep(f, sum)
	switch {
	case f.dropped:
		nic.FreeFrame(data)
	case due > readyAt:
		w.hold(1-from, dueFrame{data, due, sum})
	default:
		w.deliver(1-from, data, readyAt, sum)
	}
}

// inject puts a frame whose bytes are final on the wire toward end to,
// as the far end's, arriving at instant at; it passes no rule.
func (w *scriptWire) inject(to int, at int64, frame []byte) {
	w.keep(w.note(1-to, at, at, frame), nic.PendingSum{})
	if at > w.clk.Now() {
		w.hold(to, dueFrame{data: frame, due: at})
		return
	}
	w.deliver(to, frame, at, nic.PendingSum{})
}

func (w *scriptWire) deliver(to int, data []byte, at int64, sum nic.PendingSum) {
	if p := w.ends[to]; p != nil {
		p.DeliverPending(data, at, sum)
		return
	}
	nic.FreeFrame(data)
}

func (w *scriptWire) hold(to int, f dueFrame) {
	q := w.held[to]
	i := len(q)
	for i > 0 && q[i-1].due > f.due {
		i--
	}
	w.held[to] = slices.Insert(q, i, f)
}

// Pump implements nic.Conduit: the held frames now due reach their end.
func (w *scriptWire) Pump(now int64) {
	for to, q := range w.held {
		for len(q) > 0 && q[0].due <= now {
			w.deliver(to, q[0].data, q[0].due, q[0].sum)
			q = q[1:]
		}
		w.held[to] = q
	}
}

// NextDeadline implements nic.Conduit: when the next held frame toward
// end to is due.
func (w *scriptWire) NextDeadline(to int, _ int64) int64 {
	if q := w.held[to]; len(q) > 0 {
		return q[0].due
	}
	return math.MaxInt64
}

// once adds r to act on the next frame it selects only, and returns it:
// its seen count is then 1.
func (w *scriptWire) once(r wireRule) *wireRule {
	r.nth = 1
	w.rules = append(w.rules, &r)
	return &r
}

// segs lists the recorded TCP segments end from sent.
func (w *scriptWire) segs(from int) []wireFrame {
	var out []wireFrame
	for _, f := range w.log {
		if f.from == from && f.tcp {
			out = append(out, f)
		}
	}
	return out
}

// wireSeg parses a frame as an IPv4 TCP segment, its SACK blocks into
// sack's backing, returning its IP and TCP headers and its payload
// length; ok is false for anything else. The checksum is not verified:
// a frame on the wire may still carry the sum its sender left pending.
func wireSeg(frame []byte, sack []SACKBlock) (ip IPv4Header, h TCPHeader, payloadLen int, ok bool) {
	eth, err := ParseEthHeader(frame)
	if err != nil || eth.Type != EtherTypeIPv4 {
		return ip, h, 0, false
	}
	ip, ihl, err := ParseIPv4Header(frame[EthHeaderLen:])
	if err != nil || ip.Proto != ProtoTCP {
		return ip, h, 0, false
	}
	seg := frame[EthHeaderLen+ihl : EthHeaderLen+int(ip.TotalLen)]
	h, hl, err := parseTCPHeader(seg, ip.Src, ip.Dst, sack, true)
	if err != nil {
		return ip, h, 0, false
	}
	return ip, h, len(seg) - hl, true
}

// script is one stack (rigIP, 10.0.0.2) on end 0 of a scriptWire whose
// end 1 is the test: a TCP listener on port 80 and a UDP socket on port
// 53, so a SYN and a datagram reach a socket. Run as a script
// (newScript), it plays the peer packetdrill's way (Cardwell et al.,
// USENIX ATC 2013), in Go tables: each line, at a virtual instant,
// injects a segment from the peer, expects the stack's next segment, or
// makes an application call.
type script struct {
	t    testing.TB
	clk  *sim.VClock
	stk  *Stack
	w    *scriptWire
	lfd  int
	port uint16 // the stack's port: 80 until one of its segments says otherwise
	next int    // the w.log index the next expectation reads from
}

// The peer's port and initial sequence number.
const (
	scriptPort = 40000
	scriptISN  = 1 << 31
)

// inputRig builds the stack and its one-ended wire, which frees what
// the stack sends.
func inputRig(t testing.TB) *script {
	t.Helper()
	clk := sim.NewVClock()
	stk, card := buildMachine(t, clk, "0000:04:00", 2, rigIP, false)
	w := &scriptWire{}
	w.attach(clk, card.Port(0), nil)
	lfd := listen(t, stk, 80)
	if ufd, _ := stk.Socket(SockDgram); stk.Bind(ufd, IPv4Addr{}, 53) != hostos.OK {
		t.Fatal("rig sockets")
	}
	return &script{t: t, clk: clk, stk: stk, w: w, lfd: lfd, port: 80}
}

// newScript is inputRig recording every frame, with the peer's MAC in
// the stack's ARP cache.
func newScript(t testing.TB) *script {
	s := inputRig(t)
	s.w.record = true
	s.w.isn[1] = scriptISN
	s.w.inject(0, 0, rigARPRequest())
	return s
}

// pkt is one segment of a script: seq relative to its sender's ISN, ack
// and SACK blocks to its receiver's, n bytes of payload, and a SYN's
// options.
type pkt struct {
	flags    uint8
	seq, ack uint32
	n        int
	win      uint16
	mss      uint16
	sackOK   bool
	sack     []SACKBlock
}

// String is close to packetdrill's notation: "S. 0:0(0) ack 1 win 65535 <mss 1460 …>".
func (p pkt) String() string {
	flags := []byte{}
	for i, name := range []byte("FSRP.") {
		if p.flags&(1<<i) != 0 {
			flags = append(flags, name)
		}
	}
	return fmt.Sprintf("%s %d:%d(%d) ack %d win %d <mss %d sackOK %v sack %v>",
		flags, p.seq, p.seq+uint32(p.n), p.n, p.ack, p.win, p.mss, p.sackOK, p.sack)
}

// pkt is a recorded segment in a script's terms.
func (w *scriptWire) pkt(f wireFrame) pkt {
	rcv := w.isn[1-f.from]
	p := pkt{flags: f.h.Flags, seq: f.h.Seq - w.isn[f.from], n: f.n, win: f.h.Window, mss: f.h.MSS, sackOK: f.h.SACKPermitted}
	if f.h.Flags&TCPAck != 0 {
		p.ack = f.h.Ack - rcv
	}
	for _, s := range f.h.SACK {
		p.sack = append(p.sack, SACKBlock{s.Start - rcv, s.End - rcv})
	}
	return p
}

// line is one line of a script, at ns since the rig was built: in is
// the peer's segment, sent then; out must be the stack's next segment
// and have left by then; call is anything else done then.
type line struct {
	at   int64
	in   *pkt
	out  *pkt
	call func()
}

func (s *script) run(lines ...line) {
	s.t.Helper()
	for _, l := range lines {
		switch {
		case l.out != nil:
			s.expect(l.at, *l.out)
		case l.in != nil:
			s.until(l.at)
			s.inject(*l.in)
		default:
			s.until(l.at)
			l.call()
		}
	}
}

// step polls the stack, then moves the clock to its next deadline, at
// least 1 µs on and at most to limit; false once the clock is there.
func (s *script) step(limit int64) bool {
	s.stk.PollOnce()
	now := s.clk.Now()
	if now >= limit {
		return false
	}
	s.clk.Set(min(max(s.stk.NextDeadline(now), now+1000), limit))
	return true
}

// until steps the stack up to instant at, polling it there.
func (s *script) until(at int64) {
	for s.step(at) {
	}
}

// expect steps the stack until it sends a TCP segment, which must be
// want, by instant by.
func (s *script) expect(by int64, want pkt) {
	s.t.Helper()
	for more := s.step(by); ; more = s.step(by) {
		for ; s.next < len(s.w.log); s.next++ {
			if f := s.w.log[s.next]; f.from == 0 && f.tcp {
				s.next++
				s.port = f.h.SrcPort
				if got := s.w.pkt(f); got.String() != want.String() {
					s.t.Fatalf("at %.3f ms the stack sent %v, want %v", float64(f.at)/1e6, got, want)
				}
				return
			}
		}
		if !more {
			s.t.Fatalf("by %.3f ms the stack sent nothing, want %v", float64(by)/1e6, want)
		}
	}
}

// inject sends p from the peer now, built with the stack's own codec.
func (s *script) inject(p pkt) {
	h := TCPHeader{SrcPort: scriptPort, DstPort: s.port, Seq: s.w.isn[1] + p.seq, Flags: p.flags, Window: p.win, MSS: p.mss, SACKPermitted: p.sackOK}
	if p.flags&TCPAck != 0 {
		h.Ack = s.w.isn[0] + p.ack
	}
	for _, b := range p.sack {
		h.SACK = append(h.SACK, SACKBlock{s.w.isn[0] + b.Start, s.w.isn[0] + b.End})
	}
	seg := make([]byte, h.encodedLen()+p.n)
	for i := range p.n {
		seg[len(seg)-p.n+i] = byte(p.seq) + byte(i)
	}
	putTCPHeaderEager(seg, h, rigPeerIP, rigIP, len(seg))
	s.w.inject(0, s.clk.Now(), rigFrame(ProtoTCP, seg))
}

// opened is the handshake most scripts begin with, at instant at: the
// peer connects to the listener, offering SACK, and the stack accepts
// into *fd.
func (s *script) opened(fd *int, at int64) []line {
	return []line{
		{at: at, in: &pkt{flags: TCPSyn, win: 65535, mss: MSSDefault, sackOK: true}},
		{at: at + 1e6, out: &pkt{flags: TCPSyn | TCPAck, ack: 1, win: maxRcvWnd, mss: MSSDefault, sackOK: s.stk.tuning.SACK}},
		{at: at + 1e6, in: &pkt{flags: TCPAck, seq: 1, ack: 1, win: 65535}},
		{at: at + 1e6, call: func() {
			var errno hostos.Errno
			if *fd, _, _, errno = s.stk.Accept(s.lfd); errno != hostos.OK {
				s.t.Fatalf("accept: %v", errno)
			}
		}},
	}
}
