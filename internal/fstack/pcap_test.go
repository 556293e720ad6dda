package fstack

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/hostos"
	"repro/internal/obs"
)

// The libpcap header fields parsePcap checks (the writer lives in
// internal/obs, whose own test pins the format).
const (
	pcapMagic    = 0xa1b2c3d4
	pcapEthernet = 1
)

// pcapTap writes every frame a port takes in into a libpcap capture on
// w, as a bed's link captures do.
func pcapTap(t *testing.T, w io.Writer) func(int64, []byte) {
	t.Helper()
	pw, err := obs.NewPcapWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	return func(tsNS int64, data []byte) { _ = pw.WritePacket(tsNS, data) }
}

// parsePcap decodes a classic libpcap stream back into frames.
func parsePcap(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	if len(raw) < 24 {
		t.Fatal("capture shorter than the global header")
	}
	if binary.LittleEndian.Uint32(raw) != pcapMagic {
		t.Fatalf("bad magic %#x", binary.LittleEndian.Uint32(raw))
	}
	if binary.LittleEndian.Uint32(raw[20:]) != pcapEthernet {
		t.Fatal("wrong link type")
	}
	var frames [][]byte
	off := 24
	for off < len(raw) {
		if off+16 > len(raw) {
			t.Fatal("truncated record header")
		}
		incl := int(binary.LittleEndian.Uint32(raw[off+8:]))
		orig := int(binary.LittleEndian.Uint32(raw[off+12:]))
		if incl > orig || off+16+incl > len(raw) {
			t.Fatal("corrupt record")
		}
		frames = append(frames, raw[off+16:off+16+incl])
		off += 16 + incl
	}
	return frames
}

// TestCableCaptureHoldsStackTraffic: a capture on the far end of the
// cable holds what the stack sent — its ARP query and the TCP segments
// carrying the payload — and freezes once the tap is removed.
func TestCableCaptureHoldsStackTraffic(t *testing.T) {
	e := newEnv(t, false)
	var buf bytes.Buffer
	e.portB.SetRxTap(pcapTap(t, &buf))
	cfd, afd := e.connectPair(5001)
	msg := bytes.Repeat([]byte{0x33}, 4000)
	e.stkA.Write(cfd, msg)
	got := 0
	rd := make([]byte, 8192)
	e.pumpUntil(8000, "transfer", func() bool {
		n, errno := e.stkB.Read(afd, rd)
		if errno == hostos.OK {
			got += n
		}
		return got >= len(msg)
	})
	e.portB.SetRxTap(nil)
	frames := parsePcap(t, buf.Bytes())
	if len(frames) < 6 {
		t.Fatalf("capture too small: %d frames", len(frames))
	}
	// The capture must contain the ARP exchange and parseable TCP/IPv4
	// frames carrying our payload bytes.
	sawARP, sawTCPData := false, false
	for _, f := range frames {
		eth, err := ParseEthHeader(f)
		if err != nil {
			t.Fatalf("unparseable captured frame: %v", err)
		}
		switch eth.Type {
		case EtherTypeARP:
			sawARP = true
		case EtherTypeIPv4:
			if bytes.Contains(f, bytes.Repeat([]byte{0x33}, 64)) {
				sawTCPData = true
			}
		}
	}
	if !sawARP || !sawTCPData {
		t.Fatalf("capture incomplete: arp=%v data=%v", sawARP, sawTCPData)
	}
	// After removing the tap, the capture freezes.
	n := buf.Len()
	e.tick()
	e.tick()
	if buf.Len() != n {
		t.Fatal("tap still active after removal")
	}
}
