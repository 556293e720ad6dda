package fstack

import (
	"bytes"
	"slices"
	"testing"
)

// TestICMPEchoReply: an echo request to the stack is answered with an
// echo reply to its sender carrying the same ID, Seq and payload under a
// valid checksum; a request whose checksum is wrong is counted in
// RxDropped and not answered.
func TestICMPEchoReply(t *testing.T) {
	r := inputRig(t)
	stk := r.stk
	r.w.record = true
	feed := func(frame []byte) {
		r.w.inject(0, r.clk.Now(), frame)
		stk.PollOnce()
	}
	feed(rigARPRequest()) // the peer's MAC, so the reply need not wait on ARP

	payload := []byte("echo payload 0123456789")
	request := rigFrame(ProtoICMP, rigEcho(ICMPEcho{Type: ICMPEchoRequest, ID: 0x4a7e, Seq: 9}, payload))
	r.w.log = nil // the ARP request, the ARP reply
	feed(request)
	if len(r.w.log) != 2 || r.w.log[1].from != 0 {
		t.Fatalf("the stack sent %d frames for one echo request, want 1", len(r.w.log)-1)
	}
	reply := r.w.log[1].data
	eth, err := ParseEthHeader(reply)
	if err != nil || eth.Dst != rigPeerMAC || eth.Src != rigMAC || eth.Type != EtherTypeIPv4 {
		t.Fatalf("reply Ethernet header %+v (%v)", eth, err)
	}
	ip, ihl, err := ParseIPv4Header(reply[EthHeaderLen:])
	if err != nil || ip.Src != rigIP || ip.Dst != rigPeerIP || ip.Proto != ProtoICMP {
		t.Fatalf("reply IPv4 header %+v (%v)", ip, err)
	}
	seg := reply[EthHeaderLen+ihl : EthHeaderLen+int(ip.TotalLen)]
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
	if len(r.w.log) != 3 {
		t.Fatalf("a request with a bad checksum was answered")
	}
	if got := stk.Stats().RxDropped; got != dropped+1 {
		t.Fatalf("RxDropped %d -> %d for a bad checksum, want +1", dropped, got)
	}
}
