package fstack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dpdk"
)

// These property tests feed arbitrary bytes into every wire-format
// parser: none may panic, and any accepted parse must be internally
// consistent. This is the input surface a hostile link partner controls
// — precisely what the paper's threat model worries about.

func TestQuickParseEthNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		h, err := ParseEthHeader(b)
		if err != nil {
			return true
		}
		return h.Type == uint16(b[12])<<8|uint16(b[13])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseIPv4NeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		h, ihl, err := ParseIPv4Header(b)
		if err != nil {
			return true
		}
		// Accepted packets must be self-consistent.
		return ihl >= IPv4HeaderLen && int(h.TotalLen) >= ihl && int(h.TotalLen) <= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseARPNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		p, err := ParseARPPacket(b)
		if err != nil {
			return true
		}
		return p.Op == ARPRequest || p.Op == ARPReply || p.Op > 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseTCPNeverPanics(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	f := func(b []byte) bool {
		h, hl, err := ParseTCPHeader(b, src, dst)
		if err != nil {
			return true
		}
		_ = h
		return hl >= TCPHeaderLen && hl <= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseUDPICMPNeverPanic(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	f := func(b []byte) bool {
		if h, err := ParseUDPHeader(b, src, dst, false); err == nil {
			if int(h.Length) > len(b) {
				return false
			}
		}
		if _, err := ParseICMPEcho(b); err == nil && len(b) < ICMPHeaderLen {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedTCPOptionTruncation covers the specific option-walk edge
// cases: zero-length options, truncated options, option padding.
func TestMalformedTCPOptionTruncation(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	base := TCPHeader{SrcPort: 1, DstPort: 2}
	cases := []struct {
		name    string
		mutate  func(b []byte)
		wantErr bool
	}{
		{"zero-length option", func(b []byte) { b[TCPHeaderLen] = 3; b[TCPHeaderLen+1] = 0 }, true},
		{"length beyond header", func(b []byte) { b[TCPHeaderLen] = 8; b[TCPHeaderLen+1] = 200 }, true},
		// Kind 2 with length 3 is a well-formed walk but not a valid MSS
		// option: the parser must skip it without taking an MSS value.
		{"short MSS ignored", func(b []byte) { b[TCPHeaderLen] = 2; b[TCPHeaderLen+1] = 3 }, false},
	}
	for _, tc := range cases {
		b := make([]byte, TCPHeaderLen+8)
		b[12] = byte((TCPHeaderLen + 8) / 4 << 4)
		PutTCPHeader(b, base, src, dst, len(b)) // writes data offset 20; force options area
		b[12] = byte((TCPHeaderLen + 8) / 4 << 4)
		tc.mutate(b)
		// Recompute checksum so the parser reaches the option walk.
		b[16], b[17] = 0, 0
		cs := transportChecksum(src, dst, ProtoTCP, b)
		b[16], b[17] = byte(cs>>8), byte(cs)
		h, _, err := ParseTCPHeader(b, src, dst)
		if tc.wantErr && err == nil {
			t.Fatalf("%s accepted: % x", tc.name, b[TCPHeaderLen:])
		}
		if !tc.wantErr {
			if err != nil {
				t.Fatalf("%s rejected: %v", tc.name, err)
			}
			if h.MSS != 0 {
				t.Fatalf("%s produced MSS=%d", tc.name, h.MSS)
			}
		}
	}
}

// TestHostileFramesDoNotCrashStack blasts random garbage frames at a
// live stack: nothing may panic; the stack drops and counts them.
func TestHostileFramesDoNotCrashStack(t *testing.T) {
	e := newEnv(t, false)
	// Build garbage directly in the peer's TX path by sending UDP with
	// random payloads AND raw frames crafted via the peer's stack mbufs.
	f := func(payload []byte, dstPort uint16) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		fd, _ := e.stkA.Socket(SockDgram)
		e.stkA.SendTo(fd, payload, IP4(10, 0, 0, 2), dstPort)
		e.stkA.Close(fd)
		for i := 0; i < 5; i++ {
			e.tick()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if e.stkB.Stats().RxDropped == 0 {
		t.Log("note: all hostile datagrams happened to hit open ports")
	}
}

// FuzzTCPHeader feeds arbitrary bytes (with a repaired checksum, so the
// fuzzer reaches the option parser) to the TCP header decoder: it must
// never panic, and a header it accepts and that fits TCP's 60-byte limit
// must survive PutTCPHeader and a second parse unchanged.
func FuzzTCPHeader(f *testing.F) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	for _, h := range []TCPHeader{
		{SrcPort: 5001, DstPort: 80, Seq: 1, Flags: TCPSyn, Window: 65535, MSS: MSSDefault, HasWS: true, WScale: 7, SACKPermitted: true, HasTS: true, TSVal: 9},
		{SrcPort: 80, DstPort: 5001, Seq: 0xFFFFFFF0, Ack: 2, Flags: TCPAck, HasTS: true, TSVal: 10, TSEcr: 9,
			SACK: []SACKBlock{{Start: 0xFFFFFF00, End: 0x40}, {Start: 0x100, End: 0x200}, {Start: 0x300, End: 0x400}}},
		{SrcPort: 1, DstPort: 2, Flags: TCPAck | TCPPsh | TCPFin},
		{SrcPort: 1, DstPort: 2, Flags: TCPSyn | TCPAck, HasWS: true, WScale: 200},
	} {
		b := make([]byte, h.encodedLen()+3)
		copy(b[h.encodedLen():], "abc")
		PutTCPHeader(b, h, src, dst, len(b))
		f.Add(b)
	}
	f.Add([]byte{0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0x60, 0x10, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0})  // SACK option of length 2
	f.Add([]byte{0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0x60, 0x10, 0, 0, 0, 0, 0, 0, 8, 10, 1, 1}) // timestamps running off the end
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) >= TCPHeaderLen {
			b[16], b[17] = 0, 0
			binary.BigEndian.PutUint16(b[16:18], transportChecksum(src, dst, ProtoTCP, b))
		}
		h, hl, err := ParseTCPHeader(b, src, dst)
		if err != nil {
			return
		}
		if hl < TCPHeaderLen || hl > len(b) {
			t.Fatalf("accepted header length %d of a %d-byte segment", hl, len(b))
		}
		if h.encodedLen() > 60 {
			return // e.g. four SACK blocks beside timestamps: parseable, not encodable
		}
		payload := b[hl:]
		out := make([]byte, h.encodedLen()+len(payload))
		copy(out[h.encodedLen():], payload)
		putTCPHeaderEager(out, h, src, dst, len(out))
		h2, hl2, err := ParseTCPHeader(out, src, dst)
		if err != nil {
			t.Fatalf("re-encoded header does not parse: %v\n%+v", err, h)
		}
		sack, sack2 := h.SACK, h2.SACK
		h.SACK, h2.SACK = nil, nil
		if hl2 != len(out)-len(payload) || !reflect.DeepEqual(h, h2) || !slices.Equal(sack, sack2) {
			t.Fatalf("round trip changed the header:\n was %+v %v\n now %+v %v", h, sack, h2, sack2)
		}
	})
}

// FuzzReassembly turns bytes into an arrival trace — segments of a known
// source stream at fuzzer-chosen offsets around rcvNxt, and application
// reads — against a 4 KiB receive ring that starts just below the
// sequence wrap. Whatever arrives: the run list keeps its invariants
// (checkRuns) and what the application reads is always the source, in
// order, with nothing missing.
func FuzzReassembly(f *testing.F) {
	const size = 4096
	src := make([]byte, 16*size)
	rand.New(rand.NewSource(1)).Read(src)
	g := newReassRig(f)

	// Four bytes an op: a zero first pair is a read, anything else a
	// segment at offset pair%8192-256 from rcvNxt, 1+pair%2048 bytes long.
	f.Add([]byte{})
	f.Add([]byte{1, 100, 0, 99, 2, 44, 0, 99, 1, 0, 0, 99, 0, 0, 255, 255})              // two parked, the fill, a read
	f.Add([]byte{1, 100, 0, 99, 1, 200, 0, 99, 1, 150, 0, 199, 1, 0, 0, 99, 0, 0, 1, 0}) // an arrival spanning two parked segments
	f.Add([]byte{16, 160, 0, 99, 1, 0, 7, 255, 1, 0, 3, 231, 2, 244, 0, 99, 1, 0, 7, 255,
		0, 0, 8, 0, 1, 100, 0, 99, 1, 0, 0, 99}) // past the window; a window overrun over a parked run
	f.Add(bytes.Repeat([]byte{1, 8, 0, 0, 1, 4, 0, 0, 1, 6, 0, 0, 0, 0, 0, 7}, 40)) // one-byte segments
	f.Fuzz(func(t *testing.T, ops []byte) {
		const isn = uint32(1<<32 - size/2)
		g.reset(t, size, len(ops)%2 == 1, isn, src)
		c := g.conn
		delivered := 0
		read := func(n int) {
			got := g.read(n)
			if !bytes.Equal(got, src[delivered:delivered+len(got)]) {
				t.Fatalf("read %d bytes at stream offset %d that are not the source's", len(got), delivered)
			}
			delivered += len(got)
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			nxt := int(c.rcvNxt - isn)
			if nxt > len(src)-2*size {
				break
			}
			a, b := int(ops[0])<<8|int(ops[1]), int(ops[2])<<8|int(ops[3])
			if a == 0 {
				read(b % (size + 1))
				continue
			}
			// The segment's offset from rcvNxt: a little behind it, on it,
			// or anywhere up to well past the window.
			from := max(nxt+a%(2*size)-256, 0)
			to := min(from+1+b%2048, len(src))
			g.arrive(from, to)
			if err := checkRuns(c); err != nil {
				t.Fatalf("after [%d,%d) with rcvNxt at %d: %v", from, to, nxt, err)
			}
			if got := int(c.rcvNxt-isn) - delivered; got != c.rcvBuf.Len() {
				t.Fatalf("rcvNxt is %d past what was read, the ring holds %d", got, c.rcvBuf.Len())
			}
		}
		read(size)
		if delivered != int(c.rcvNxt-isn) {
			t.Fatalf("delivered %d bytes, rcvNxt says %d", delivered, int(c.rcvNxt-isn))
		}
	})
}

// The rig's addresses: the stack under test and the peer that sends it
// frames.
var (
	rigIP, rigPeerIP   = IP4(10, 0, 0, 2), IP4(10, 0, 0, 1)
	rigMAC, rigPeerMAC = MACAddr{2, 0, 0, 0, 0, 2}, MACAddr{2, 0, 0, 0, 0, 1}
)

// rigARPRequest is the peer asking for the rig stack's MAC, which also
// puts the peer in the stack's ARP cache.
func rigARPRequest() []byte {
	b := make([]byte, EthHeaderLen+ARPPacketLen)
	PutEthHeader(b, EthHeader{Dst: BroadcastMAC, Src: rigPeerMAC, Type: EtherTypeARP})
	PutARPPacket(b[EthHeaderLen:], ARPPacket{Op: ARPRequest, SenderMAC: rigPeerMAC, SenderIP: rigPeerIP, TargetIP: rigIP})
	return b
}

// rigFrame builds the peer's IPv4 frame to the rig stack around a
// transport segment.
func rigFrame(proto uint8, seg []byte) []byte {
	b := make([]byte, EthHeaderLen+IPv4HeaderLen+len(seg))
	PutEthHeader(b, EthHeader{Dst: rigMAC, Src: rigPeerMAC, Type: EtherTypeIPv4})
	PutIPv4Header(b[EthHeaderLen:], IPv4Header{TotalLen: uint16(IPv4HeaderLen + len(seg)), TTL: 64, Proto: proto, Src: rigPeerIP, Dst: rigIP})
	copy(b[EthHeaderLen+IPv4HeaderLen:], seg)
	return b
}

// rigEcho is an ICMP echo message carrying payload.
func rigEcho(h ICMPEcho, payload []byte) []byte {
	b := make([]byte, ICMPHeaderLen+len(payload))
	copy(b[ICMPHeaderLen:], payload)
	PutICMPEcho(b, h)
	return b
}

// repairChecksums recomputes the IPv4 header checksum and, where the
// total length fits the frame, the ICMP, TCP or UDP one, so a mutation
// reaches the decoders behind the checksums instead of stopping at them.
func repairChecksums(frame []byte) {
	if len(frame) < EthHeaderLen+IPv4HeaderLen || binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return
	}
	ip := frame[EthHeaderLen:]
	ihl := int(ip[0]&0xF) * 4
	if ihl < IPv4HeaderLen || ihl > len(ip) {
		return
	}
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:ihl]))
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if total < ihl || total > len(ip) {
		return
	}
	src, dst := IPv4Addr(ip[12:16]), IPv4Addr(ip[16:20])
	seg := ip[ihl:total]
	switch {
	case ip[9] == ProtoICMP && len(seg) >= ICMPHeaderLen:
		seg[2], seg[3] = 0, 0
		binary.BigEndian.PutUint16(seg[2:4], Checksum(seg))
	case ip[9] == ProtoTCP && len(seg) >= TCPHeaderLen:
		seg[16], seg[17] = 0, 0
		binary.BigEndian.PutUint16(seg[16:18], transportChecksum(src, dst, ProtoTCP, seg))
	case ip[9] == ProtoUDP && len(seg) >= UDPHeaderLen:
		if n := int(binary.BigEndian.Uint16(seg[4:6])); n >= UDPHeaderLen && n <= len(seg) {
			seg[6], seg[7] = 0, 0
			binary.BigEndian.PutUint16(seg[6:8], max(transportChecksum(src, dst, ProtoUDP, seg[:n]), 1))
		}
	}
}

// poolAvail counts p's free mbufs through Get and Free, handing them
// back in reverse order so the pool's free list is as it was.
func poolAvail(p *dpdk.Mempool) int {
	var taken []*dpdk.Mbuf
	for m, ok := p.Get(); ok; m, ok = p.Get() {
		taken = append(taken, m)
	}
	for i := len(taken) - 1; i >= 0; i-- {
		taken[i].Free()
	}
	return len(taken)
}

// FuzzFrameInput hands arbitrary bytes, as a received frame, to a live
// stack's input path — Ethernet, ARP, IPv4, ICMP, UDP and TCP decode and
// everything a frame can make the stack do. It must never panic, and
// the mbuf pool must be back to its level once the device has sent what
// the stack answered: every frame is consumed or freed, none leaks.
func FuzzFrameInput(f *testing.F) {
	f.Add(rigARPRequest())
	f.Add(rigFrame(ProtoICMP, rigEcho(ICMPEcho{Type: ICMPEchoRequest, ID: 1, Seq: 1}, []byte("ping"))))
	syn := TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 7, Flags: TCPSyn, Window: 65535, MSS: MSSDefault}
	seg := make([]byte, syn.encodedLen())
	putTCPHeaderEager(seg, syn, rigPeerIP, rigIP, len(seg))
	synFrame := rigFrame(ProtoTCP, seg)
	f.Add(synFrame)
	dgram := make([]byte, UDPHeaderLen+5)
	copy(dgram[UDPHeaderLen:], "query")
	putUDPHeaderEager(dgram, UDPHeader{SrcPort: 40001, DstPort: 53, Length: uint16(len(dgram))}, rigPeerIP, rigIP)
	udpFrame := rigFrame(ProtoUDP, dgram)
	f.Add(udpFrame)
	short := slices.Clone(udpFrame)
	short[EthHeaderLen] = 0x44 // IHL 4 (16 bytes) < 5
	f.Add(short)
	long := slices.Clone(udpFrame)
	binary.BigEndian.PutUint16(long[EthHeaderLen+2:], uint16(len(long)-EthHeaderLen+100)) // total length past the frame
	f.Add(long)
	f.Add(rigFrame(ProtoTCP, seg[:TCPHeaderLen/2])) // truncated TCP header
	off := rigFrame(ProtoTCP, seg[:TCPHeaderLen])
	off[EthHeaderLen+IPv4HeaderLen+12] = 15 << 4 // data offset 60 > a 20-byte segment
	f.Add(off)
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return // the device drops an empty frame before a descriptor holds it
		}
		r := inputRig(t)
		clk, stk := r.clk, r.stk
		nif, pool := stk.nifs[0], stk.pool
		before := poolAvail(pool)
		m, ok := pool.Get()
		if !ok {
			t.Fatal("empty pool")
		}
		frame = frame[:min(len(frame), m.Tailroom())]
		buf, err := m.Append(len(frame))
		if err != nil {
			t.Fatal(err)
		}
		copy(buf, frame)
		repairChecksums(buf)
		stk.input(nif, m)
		for i := 0; i < 4 && poolAvail(pool) != before; i++ {
			clk.Advance(1e6)
			nif.dev.Poll() // send what the stack answered; reclaim the mbufs
		}
		if got := poolAvail(pool); got != before {
			t.Fatalf("pool holds %d mbufs after the frame, %d before it", got, before)
		}
	})
}
