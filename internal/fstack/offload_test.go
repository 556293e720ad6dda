package fstack

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/checksum"
	"repro/internal/hostos"
	"repro/internal/netem"
)

// eagerFrame is f with its TCP or UDP checksum summed in software, as
// putTCPHeaderEager and putUDPHeaderEager write it; any other frame
// comes back unchanged.
func eagerFrame(t *testing.T, f []byte) []byte {
	t.Helper()
	out := slices.Clone(f)
	if eth, err := ParseEthHeader(out); err != nil || eth.Type != EtherTypeIPv4 {
		return out
	}
	ip, ihl, err := ParseIPv4Header(out[EthHeaderLen:])
	if err != nil {
		t.Fatalf("captured an unparseable IPv4 frame: %v", err)
	}
	seg := out[EthHeaderLen+ihl : EthHeaderLen+int(ip.TotalLen)]
	switch ip.Proto {
	case ProtoTCP:
		sumTCPEager(seg, ip.Src, ip.Dst)
	case ProtoUDP:
		sumUDPEager(seg, ip.Src, ip.Dst)
	}
	return out
}

// zeroSumPayload is a datagram payload that makes the UDP checksum of a
// datagram from src:sport to dst:dport sum to zero, which RFC 768 sends
// as 0xFFFF: its last word is chosen to bring the sum to 0xFFFF.
func zeroSumPayload(src, dst IPv4Addr, sport, dport uint16) []byte {
	payload := []byte("sums to zero!!\x00\x00")
	seg := make([]byte, UDPHeaderLen+len(payload))
	binary.BigEndian.PutUint16(seg[0:], sport)
	binary.BigEndian.PutUint16(seg[2:], dport)
	binary.BigEndian.PutUint16(seg[4:], uint16(len(seg)))
	copy(seg[UDPHeaderLen:], payload)
	s := checksum.Add(pseudoHeaderSum(src, dst, ProtoUDP, len(seg)), seg)
	binary.BigEndian.PutUint16(payload[len(payload)-2:], 0xFFFF-uint16(s))
	return payload
}

// TestOffloadedFramesMatchEagerReference: over a plain cable and over a
// netem link, every frame a tap captures is byte-identical to the frame
// with its checksum summed in software — SYNs with options, pure ACKs,
// data segments and datagrams, one of them a UDP checksum that sums to
// zero and goes on the wire as 0xFFFF — and every TCP/UDP segment each
// stack took in was one the NIC vouched for.
func TestOffloadedFramesMatchEagerReference(t *testing.T) {
	for _, link := range []struct {
		name string
		env  func(t *testing.T) *testEnv
	}{
		{"cable", func(t *testing.T) *testEnv { return newEnv(t, false) }},
		{"netem", func(t *testing.T) *testEnv {
			cfg := netem.Config{DelayNS: 40_000, JitterNS: 5_000, Seed: 3}
			return newRig(t, false, netemLink(cfg, cfg))
		}},
	} {
		t.Run(link.name, func(t *testing.T) {
			e := link.env(t)
			var toA, toB [][]byte
			e.portA.SetRxTap(func(_ int64, f []byte) { toA = append(toA, slices.Clone(f)) })
			e.portB.SetRxTap(func(_ int64, f []byte) { toB = append(toB, slices.Clone(f)) })

			cfd, afd := e.connectPair(5001)
			msg := bytes.Repeat([]byte("offload "), 2000)
			if n, errno := e.stkA.Write(cfd, msg); n != len(msg) || errno != hostos.OK {
				t.Fatalf("write: %d, %v", n, errno)
			}
			got, rd := 0, make([]byte, 8192)
			e.pumpUntil(20000, "transfer", func() bool {
				if n, errno := e.stkB.Read(afd, rd); errno == hostos.OK {
					got += n
				}
				return got == len(msg)
			})

			const sport, dport = 40000, 53
			ufdA, _ := e.stkA.Socket(SockDgram)
			ufdB, _ := e.stkB.Socket(SockDgram)
			if e.stkA.Bind(ufdA, IPv4Addr{}, sport) != hostos.OK || e.stkB.Bind(ufdB, IPv4Addr{}, dport) != hostos.OK {
				t.Fatal("udp bind")
			}
			for _, p := range [][]byte{zeroSumPayload(IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), sport, dport), []byte("an ordinary query")} {
				if _, errno := e.stkA.SendTo(ufdA, p, IP4(10, 0, 0, 2), dport); errno != hostos.OK {
					t.Fatalf("sendto: %v", errno)
				}
				e.pumpUntil(2000, "datagram", func() bool {
					n, _, _, errno := e.stkB.RecvFrom(ufdB, rd)
					return errno == hostos.OK && bytes.Equal(rd[:n], p)
				})
			}
			e.portA.SetRxTap(nil)
			e.portB.SetRxTap(nil)

			var syn, ack, data, udp, udpFFFF bool
			for _, end := range []struct {
				stk    *Stack
				frames [][]byte
			}{{e.stkA, toA}, {e.stkB, toB}} {
				segs := 0
				for _, f := range end.frames {
					if want := eagerFrame(t, f); !bytes.Equal(f, want) {
						t.Fatalf("captured frame differs from the eager reference:\n got % x\nwant % x", f, want)
					}
					ip, ihl, err := ParseIPv4Header(f[EthHeaderLen:])
					if err != nil {
						continue // ARP
					}
					seg := f[EthHeaderLen+ihl : EthHeaderLen+int(ip.TotalLen)]
					switch ip.Proto {
					case ProtoTCP:
						segs++
						hl, flags := int(seg[12]>>4)*4, seg[13]
						syn = syn || flags&TCPSyn != 0 && hl > TCPHeaderLen
						ack = ack || flags == TCPAck && hl == len(seg)
						data = data || hl < len(seg)
					case ProtoUDP:
						segs++
						udp = true
						udpFFFF = udpFFFF || binary.BigEndian.Uint16(seg[6:]) == 0xFFFF
					}
				}
				if st := end.stk.Stats(); st.RxL4Offload != uint64(segs) || st.RxDropped != 0 {
					t.Fatalf("%d TCP/UDP segments arrived, %d on the NIC's word, %d dropped", segs, st.RxL4Offload, st.RxDropped)
				}
			}
			if !syn || !ack || !data || !udp || !udpFFFF {
				t.Fatalf("capture lacks a kind: SYN with options %v, pure ACK %v, data %v, UDP %v, UDP 0xFFFF %v", syn, ack, data, udp, udpFFFF)
			}
		})
	}
}

// TestHandDeliveredSegmentsAreVerified: a frame handed to the port by
// hand (no NIC vouched for its checksum) is verified in software — a
// good one is taken, a TCP segment or datagram with a bad checksum is
// dropped and counted in RxDropped as before the offload, and none of
// them counts as offloaded.
func TestHandDeliveredSegmentsAreVerified(t *testing.T) {
	r := inputRig(t)
	stk := r.stk
	deliver := func(frame []byte) {
		r.w.inject(0, r.clk.Now(), frame)
		stk.PollOnce()
	}
	deliver(rigARPRequest())
	dgram := func(payload string) []byte {
		b := make([]byte, UDPHeaderLen+len(payload))
		copy(b[UDPHeaderLen:], payload)
		putUDPHeaderEager(b, UDPHeader{SrcPort: 40001, DstPort: 53, Length: uint16(len(b))}, rigPeerIP, rigIP)
		return rigFrame(ProtoUDP, b)
	}
	deliver(dgram("good"))
	if st := stk.Stats(); st.RxDropped != 0 || st.RxL4Offload != 0 {
		t.Fatalf("a good hand-delivered datagram: %d dropped, %d offloaded", st.RxDropped, st.RxL4Offload)
	}
	bad := dgram("bad!")
	bad[len(bad)-1] ^= 0x20
	deliver(bad)
	syn := TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 7, Flags: TCPSyn, Window: 65535, MSS: MSSDefault}
	seg := make([]byte, syn.encodedLen())
	putTCPHeaderEager(seg, syn, rigPeerIP, rigIP, len(seg))
	seg[len(seg)-1] ^= 0x01
	deliver(rigFrame(ProtoTCP, seg))
	if st := stk.Stats(); st.RxDropped != 2 || st.RxL4Offload != 0 || stk.syncache[fourTuple{
		local: tcpEndpoint{IP: rigIP, Port: 80}, remote: tcpEndpoint{IP: rigPeerIP, Port: 40000}}] != nil {
		t.Fatalf("bad checksums: %d dropped (want 2), %d offloaded, SYN cached %v", st.RxDropped, st.RxL4Offload, len(stk.syncache) != 0)
	}
}

// TestSettledFramesAreVerifiedInSoftware: frames edited on the way go
// through PendingSum.Settle and lose their tag, so the receiving stack
// sums every one of them itself — none counts as offloaded, an intact
// one is taken, and the one data segment whose payload a rule flips
// is dropped as a bad checksum and recovered by retransmission. The
// other direction, untouched, stays offloaded.
func TestSettledFramesAreVerifiedInSoftware(t *testing.T) {
	e := newRig(t, false, (&scriptWire{rules: []*wireRule{
		{from: fromA, edit: func(*wireFrame) {}}, // settle every frame A sends
		{from: fromA, kind: dataSeg, nth: 3, corrupt: true, edit: func(f *wireFrame) { f.data[len(f.data)-1] ^= 0x01 }},
	}}).attach)
	stkA, stkB := e.stkA, e.stkB

	cfd, afd := e.connectPair(5002)
	msg := bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, 8000)
	stkA.Write(cfd, msg)
	var got []byte
	rd := make([]byte, 8192)
	e.pumpUntil(40000, "transfer", func() bool {
		if n, errno := stkB.Read(afd, rd); errno == hostos.OK {
			got = append(got, rd[:n]...)
		}
		return len(got) == len(msg)
	})
	if !bytes.Equal(got, msg) {
		t.Fatal("the stream arrived damaged")
	}
	b, a := stkB.Stats(), stkA.Stats()
	if b.RxL4Offload != 0 || b.RxDropped != 1 || a.Retransmit == 0 {
		t.Fatalf("settled direction: %d offloaded (want 0), %d dropped (want 1), %d retransmitted", b.RxL4Offload, b.RxDropped, a.Retransmit)
	}
	if a.RxL4Offload == 0 || a.RxDropped != 0 {
		t.Fatalf("untouched direction: %d offloaded, %d dropped", a.RxL4Offload, a.RxDropped)
	}
}
