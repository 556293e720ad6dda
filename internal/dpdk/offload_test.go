package dpdk

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/checksum"
	"repro/internal/nic"
)

// TestMbufStructSizes pins the mbuf header at 24 B: the offload flag
// rides in what was padding, so a pool of any size costs what it did.
func TestMbufStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(Mbuf{}); got != 24 {
		t.Fatalf("Mbuf is %d B, want 24", got)
	}
}

// seededUDP is udpFrame with the pseudo-header seed in its checksum
// field, as the stack leaves it for the device, and the checksum the
// wire must carry.
func seededUDP(src, dst [4]byte, payload int) (frame []byte, want uint16) {
	frame = udpFrame(src, dst, 4000, 53, payload)
	for i := range payload {
		frame[42+i] = byte(i*7 + 1)
	}
	seg := frame[34:]
	pseudo := uint32(binary.BigEndian.Uint16(src[:])) + uint32(binary.BigEndian.Uint16(src[2:])) +
		uint32(binary.BigEndian.Uint16(dst[:])) + uint32(binary.BigEndian.Uint16(dst[2:])) + 17 + uint32(len(seg))
	want = checksum.Finish(checksum.Add(pseudo, seg))
	if want == 0 {
		want = 0xFFFF
	}
	binary.BigEndian.PutUint16(seg[6:], ^checksum.Finish(pseudo))
	return frame, want
}

// TestL4SumOffloadThroughTheDevice drives the offload flag through the
// driver and the device. A flagged UDP frame is programmed with CMD.IC,
// CSS at its UDP header and CSO at its checksum field, reaches the far
// port's tap with the real checksum filled in, and is harvested flagged
// good. The same frame unflagged, a frame the wire hands the port by
// hand, and a flagged frame that is not TCP or UDP over IPv4 (sent
// without CMD.IC) are harvested unflagged: not checked.
func TestL4SumOffloadThroughTheDevice(t *testing.T) {
	r := newRig(t, false)
	src, dst := [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}
	var tapped [][]byte
	r.portA.SetRxTap(func(_ int64, f []byte) { tapped = append(tapped, slices.Clone(f)) })

	send := func(frame []byte, flag bool) (cmd, cso, css byte) {
		t.Helper()
		m := makeFrame(t, r.popB, frame)
		if flag {
			m.SetL4Sum()
		}
		tq := &r.devB.txqs[0]
		desc := tq.base + uint64(tq.next)*nic.DescSize
		if r.devB.TxBurstQ(0, []*Mbuf{m}) != 1 {
			t.Fatal("TX ring refused the frame")
		}
		s, err := r.segB.SliceRO(desc, nic.DescSize)
		if err != nil {
			t.Fatal(err)
		}
		return s[11], s[nic.TxDescCSO], s[nic.TxDescCSS]
	}
	harvest := func(what string) (*Mbuf, []byte) {
		t.Helper()
		r.pump(20)
		out := make([]*Mbuf, 4)
		if n := r.devA.RxBurstQ(0, out); n != 1 {
			t.Fatalf("%s: harvested %d frames, want 1", what, n)
		}
		b, err := out[0].BytesRO()
		if err != nil {
			t.Fatal(err)
		}
		return out[0], b
	}

	seeded, want := seededUDP(src, dst, 301)
	cmd, cso, css := send(seeded, true)
	if cmd&nic.TxCmdIC == 0 || cso != 14+20+6 || css != 14+20 {
		t.Fatalf("flagged UDP frame: CMD %#02x, CSO %d, CSS %d; want IC, 40, 34", cmd, cso, css)
	}
	m, _ := harvest("flagged")
	if !m.L4Sum() {
		t.Fatal("a frame that crossed with its sum pending was harvested unflagged")
	}
	m.Free()
	filled := slices.Clone(seeded)
	binary.BigEndian.PutUint16(filled[40:], want)
	if len(tapped) != 1 || !bytes.Equal(tapped[0], filled) {
		t.Fatalf("the tap read %d frames; want the sent one with checksum %#04x filled in", len(tapped), want)
	}

	cmd, _, _ = send(seeded, false)
	if cmd&nic.TxCmdIC != 0 {
		t.Fatal("an unflagged frame asked for the checksum engine")
	}
	if m, b := harvest("unflagged"); m.L4Sum() || !bytes.Equal(b, seeded) {
		t.Fatalf("unflagged frame harvested flagged %v, bytes changed %v", m.L4Sum(), !bytes.Equal(b, seeded))
	} else {
		m.Free()
	}

	r.portA.DeliverFrame(slices.Clone(seeded), r.clk.Now())
	if m, _ := harvest("hand-delivered"); m.L4Sum() {
		t.Fatal("a hand-delivered frame was harvested flagged good")
	} else {
		m.Free()
	}

	arp := make([]byte, 60)
	arp[12], arp[13] = 0x08, 0x06
	if cmd, _, _ := send(arp, true); cmd&nic.TxCmdIC != 0 {
		t.Fatal("a flagged non-IP frame asked for the checksum engine")
	}
	if m, b := harvest("flagged ARP"); m.L4Sum() || !bytes.Equal(b, arp) {
		t.Fatal("a flagged non-IP frame was changed or harvested flagged")
	} else {
		m.Free()
	}
}
