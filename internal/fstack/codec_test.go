package fstack

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, checksum 220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got := Checksum([]byte{0xFF}); got != ^uint16(0xFF00) {
		t.Fatalf("odd checksum = %#04x", got)
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 || len(data)%2 == 1 {
			return true // the verify-to-zero property needs 16-bit alignment
		}
		cs := Checksum(data)
		// Appending the checksum makes the total sum verify to zero.
		withCS := append(append([]byte{}, data...), byte(cs>>8), byte(cs))
		return Checksum(withCS) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEthHeaderRoundTrip(t *testing.T) {
	h := EthHeader{
		Dst:  MACAddr{1, 2, 3, 4, 5, 6},
		Src:  MACAddr{7, 8, 9, 10, 11, 12},
		Type: EtherTypeIPv4,
	}
	b := make([]byte, EthHeaderLen)
	PutEthHeader(b, h)
	got, err := ParseEthHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if _, err := ParseEthHeader(b[:10]); err == nil {
		t.Fatal("short frame must fail")
	}
}

func TestMACString(t *testing.T) {
	m := MACAddr{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC string = %s", m)
	}
	if IP4(10, 0, 0, 1).String() != "10.0.0.1" {
		t.Fatalf("IP string = %s", IP4(10, 0, 0, 1))
	}
}

func TestIPv4HeaderRoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0, TotalLen: 120, ID: 42, Flags: flagDontFragment,
		TTL: 64, Proto: ProtoTCP,
		Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2),
	}
	b := make([]byte, 120)
	PutIPv4Header(b, h)
	got, ihl, err := ParseIPv4Header(b)
	if err != nil {
		t.Fatal(err)
	}
	if ihl != IPv4HeaderLen {
		t.Fatalf("ihl = %d", ihl)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.Proto != h.Proto || got.TotalLen != h.TotalLen {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestIPv4HeaderCorruptionDetected(t *testing.T) {
	h := IPv4Header{TotalLen: 60, TTL: 64, Proto: ProtoUDP, Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8)}
	b := make([]byte, 60)
	PutIPv4Header(b, h)
	b[9]++ // flip the protocol
	if _, _, err := ParseIPv4Header(b); err == nil {
		t.Fatal("corrupted header must fail the checksum")
	}
}

func TestIPv4RejectsFragments(t *testing.T) {
	h := IPv4Header{TotalLen: 20, TTL: 64, Proto: ProtoUDP, FragOff: 8, Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8)}
	b := make([]byte, 20)
	PutIPv4Header(b, h)
	if _, _, err := ParseIPv4Header(b); err == nil {
		t.Fatal("fragments are unsupported and must be rejected")
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := ARPPacket{
		Op:        ARPRequest,
		SenderMAC: MACAddr{1, 2, 3, 4, 5, 6},
		SenderIP:  IP4(10, 0, 0, 1),
		TargetIP:  IP4(10, 0, 0, 2),
	}
	b := make([]byte, ARPPacketLen)
	PutARPPacket(b, p)
	got, err := ParseARPPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

func TestARPCache(t *testing.T) {
	c := newARPCache()
	ip := IP4(10, 0, 0, 9)
	if _, ok := c.lookup(ip, 0); ok {
		t.Fatal("empty cache hit")
	}
	c.park(ip, []byte{1, 2, 3}, EtherTypeIPv4, true)
	c.park(ip, []byte{4, 5, 6}, EtherTypeIPv4, false)
	mac := MACAddr{9, 9, 9, 9, 9, 9}
	pend := c.insert(ip, mac, 1000)
	if len(pend) != 2 || !bytes.Equal(pend[0].payload, []byte{1, 2, 3}) ||
		!bytes.Equal(pend[1].payload, []byte{4, 5, 6}) {
		t.Fatal("pending packets lost")
	}
	if got := c.insert(ip, mac, 1000); len(got) != 0 {
		t.Fatal("pending queue not cleared")
	}
	if got, ok := c.lookup(ip, 2000); !ok || got != mac {
		t.Fatal("binding missing")
	}
	// Expiry.
	if _, ok := c.lookup(ip, 1000+arpCacheTTL+1); ok {
		t.Fatal("binding survived TTL")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	payload := []byte("telemetry")
	b := make([]byte, UDPHeaderLen+len(payload))
	copy(b[UDPHeaderLen:], payload)
	putUDPHeaderEager(b, UDPHeader{SrcPort: 1000, DstPort: 2000, Length: uint16(len(b))}, src, dst)
	h, err := ParseUDPHeader(b, src, dst, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcPort != 1000 || h.DstPort != 2000 || int(h.Length) != len(b) {
		t.Fatalf("header: %+v", h)
	}
	b[UDPHeaderLen]++ // corrupt payload
	if _, err := ParseUDPHeader(b, src, dst, false); err == nil {
		t.Fatal("corruption must fail the checksum")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	b := make([]byte, ICMPHeaderLen+8)
	copy(b[ICMPHeaderLen:], "pingdata")
	PutICMPEcho(b, ICMPEcho{Type: ICMPEchoRequest, ID: 7, Seq: 3})
	h, err := ParseICMPEcho(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != ICMPEchoRequest || h.ID != 7 || h.Seq != 3 {
		t.Fatalf("header: %+v", h)
	}
}

func TestTCPHeaderRoundTrip(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	payload := []byte("segment payload")
	h := TCPHeader{
		SrcPort: 5001, DstPort: 46000,
		Seq: 0xDEADBEEF, Ack: 0x01020304,
		Flags: TCPAck | TCPPsh, Window: 65535,
		MSS: MSSDefault, HasTS: true, TSVal: 123456, TSEcr: 654321,
	}
	b := make([]byte, h.encodedLen()+len(payload))
	copy(b[h.encodedLen():], payload)
	hl := putTCPHeaderEager(b, h, src, dst, len(b))
	if hl != TCPHeaderLen+4+tsOptionLen {
		t.Fatalf("header length %d", hl)
	}
	got, gotHL, err := ParseTCPHeader(b, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if gotHL != hl {
		t.Fatalf("parsed hl %d != %d", gotHL, hl)
	}
	if got.Seq != h.Seq || got.Ack != h.Ack || got.Flags != h.Flags ||
		got.MSS != h.MSS || !got.HasTS || got.TSVal != h.TSVal || got.TSEcr != h.TSEcr {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if !bytes.Equal(b[gotHL:], payload) {
		t.Fatal("payload moved")
	}
}

// TestTCPFlagsAreDisjointBits pins the flag constants to single bits,
// none shared, at their RFC 793 positions: a flag that is the union of
// two others (a reset spelled Syn|Ack) would pass every h.Flags&f test
// meant for either.
func TestTCPFlagsAreDisjointBits(t *testing.T) {
	flags := []struct {
		name string
		f    uint8
		bit  int
	}{{"FIN", TCPFin, 0}, {"SYN", TCPSyn, 1}, {"RST", TCPRst, 2}, {"PSH", TCPPsh, 3}, {"ACK", TCPAck, 4}}
	var union uint8
	for _, fl := range flags {
		if fl.f != 1<<fl.bit {
			t.Errorf("TCP%s = %#02x, want bit %d (%#02x)", fl.name, fl.f, fl.bit, 1<<fl.bit)
		}
		if union&fl.f != 0 {
			t.Errorf("TCP%s = %#02x shares a bit with the flags before it (%#02x)", fl.name, fl.f, union)
		}
		union |= fl.f
	}
}

func TestTCPChecksumDetectsCorruption(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	h := TCPHeader{SrcPort: 1, DstPort: 2, HasTS: true}
	b := make([]byte, h.encodedLen()+4)
	putTCPHeaderEager(b, h, src, dst, len(b))
	b[len(b)-1] ^= 0x80
	if _, _, err := ParseTCPHeader(b, src, dst); err == nil {
		t.Fatal("corruption must fail the checksum")
	}
	// Also: wrong pseudo-header (spoofed address) fails.
	b[len(b)-1] ^= 0x80
	if _, _, err := ParseTCPHeader(b, IP4(9, 9, 9, 9), dst); err == nil {
		t.Fatal("pseudo-header mismatch must fail")
	}
}

func TestTCPHeaderQuickRoundTrip(t *testing.T) {
	src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, wnd uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		h := TCPHeader{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags &^ 0xC0, Window: wnd, HasTS: true,
		}
		b := make([]byte, h.encodedLen()+len(payload))
		copy(b[h.encodedLen():], payload)
		putTCPHeaderEager(b, h, src, dst, len(b))
		got, hl, err := ParseTCPHeader(b, src, dst)
		if err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Window == wnd && hl == h.encodedLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b uint32
		lt   bool
	}{
		{0, 1, true},
		{1, 0, false},
		{0xFFFFFFFF, 0, true}, // wraparound
		{0, 0xFFFFFFFF, false},
		{0x7FFFFFFF, 0x80000000, true},
	}
	for _, tc := range cases {
		if seqLT(tc.a, tc.b) != tc.lt {
			t.Errorf("seqLT(%#x,%#x) != %v", tc.a, tc.b, tc.lt)
		}
		if seqGE(tc.a, tc.b) == tc.lt {
			t.Errorf("seqGE(%#x,%#x) == %v", tc.a, tc.b, tc.lt)
		}
	}
	if seqMax(5, 3) != 5 || seqMax(3, 5) != 5 {
		t.Fatal("seqMax")
	}
	if !seqLE(7, 7) || !seqGE(7, 7) || seqGT(7, 7) {
		t.Fatal("equality comparisons")
	}
}

func TestMSSConstantsMatchGigabitGoodput(t *testing.T) {
	// The whole Table II calibration hangs on these: 1448 payload bytes
	// per 1538 wire bytes = 941.48 Mbit/s at line rate.
	if MSSDefault != 1460 || MaxSegData != 1448 {
		t.Fatalf("MSS constants: %d/%d", MSSDefault, MaxSegData)
	}
	frame := EthHeaderLen + IPv4HeaderLen + TCPHeaderLen + tsOptionLen + MaxSegData
	if frame != 1514 {
		t.Fatalf("full frame = %d, want 1514", frame)
	}
	goodput := 1000.0 * float64(MaxSegData) / float64(frame+24)
	if goodput < 941 || goodput > 942 {
		t.Fatalf("theoretical goodput %.2f, want ≈941.5", goodput)
	}
}
