package fstack

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/nic"
)

// txWire is a cable end that keeps a copy of every frame sent into it,
// as the wire carries it: a pending checksum is settled first.
type txWire [][]byte

func (w *txWire) Carry(_ int, data []byte, _ int64, sum nic.PendingSum) {
	sum.Settle(data)
	*w = append(*w, slices.Clone(data))
	nic.FreeFrame(data)
}
func (*txWire) Pump(int64)                    {}
func (*txWire) NextDeadline(int, int64) int64 { return math.MaxInt64 }

// TestICMPEchoReply: an echo request to the stack is answered with an
// echo reply to its sender carrying the same ID, Seq and payload under a
// valid checksum; a request whose checksum is wrong is counted in
// RxDropped and not answered.
func TestICMPEchoReply(t *testing.T) {
	_, stk, port := inputRig(t)
	var tx txWire
	port.Attach(&tx, 0)
	feed := func(frame []byte) {
		t.Helper()
		m, ok := stk.pool.Get()
		if !ok {
			t.Fatal("empty pool")
		}
		buf, err := m.Append(len(frame))
		if err != nil {
			t.Fatal(err)
		}
		copy(buf, frame)
		stk.input(stk.nifs[0], m)
	}
	feed(rigARPRequest()) // the peer's MAC, so the reply need not wait on ARP
	tx = tx[:0]

	payload := []byte("echo payload 0123456789")
	request := rigFrame(ProtoICMP, rigEcho(ICMPEcho{Type: ICMPEchoRequest, ID: 0x4a7e, Seq: 9}, payload))
	feed(request)
	if len(tx) != 1 {
		t.Fatalf("the stack sent %d frames for one echo request, want 1", len(tx))
	}
	eth, err := ParseEthHeader(tx[0])
	if err != nil || eth.Dst != rigPeerMAC || eth.Src != rigMAC || eth.Type != EtherTypeIPv4 {
		t.Fatalf("reply Ethernet header %+v (%v)", eth, err)
	}
	ip, ihl, err := ParseIPv4Header(tx[0][EthHeaderLen:])
	if err != nil || ip.Src != rigIP || ip.Dst != rigPeerIP || ip.Proto != ProtoICMP {
		t.Fatalf("reply IPv4 header %+v (%v)", ip, err)
	}
	seg := tx[0][EthHeaderLen+ihl : EthHeaderLen+int(ip.TotalLen)]
	echo, err := ParseICMPEcho(seg) // checks the checksum
	if err != nil {
		t.Fatal(err)
	}
	if echo != (ICMPEcho{Type: ICMPEchoReply, ID: 0x4a7e, Seq: 9}) {
		t.Fatalf("reply %+v, want an echo reply with ID 0x4a7e Seq 9", echo)
	}
	if !bytes.Equal(seg[ICMPHeaderLen:], payload) {
		t.Fatalf("reply payload %q, want %q", seg[ICMPHeaderLen:], payload)
	}

	dropped := stk.Stats().RxDropped
	bad := slices.Clone(request)
	bad[len(bad)-1] ^= 0xff // the payload no longer matches the ICMP checksum
	feed(bad)
	if len(tx) != 1 {
		t.Fatalf("a request with a bad checksum was answered")
	}
	if got := stk.Stats().RxDropped; got != dropped+1 {
		t.Fatalf("RxDropped %d -> %d for a bad checksum, want +1", dropped, got)
	}
}
