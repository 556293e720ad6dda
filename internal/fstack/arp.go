package fstack

import (
	"encoding/binary"
	"fmt"
)

// ARP opcodes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPPacketLen is the size of an IPv4-over-Ethernet ARP packet.
const ARPPacketLen = 28

// ARPPacket is an Ethernet/IPv4 ARP payload.
type ARPPacket struct {
	Op        uint16
	SenderMAC MACAddr
	SenderIP  IPv4Addr
	TargetMAC MACAddr
	TargetIP  IPv4Addr
}

// PutARPPacket marshals p into b (len >= ARPPacketLen).
func PutARPPacket(b []byte, p ARPPacket) {
	binary.BigEndian.PutUint16(b[0:2], 1) // hardware: Ethernet
	binary.BigEndian.PutUint16(b[2:4], EtherTypeIPv4)
	b[4] = 6 // MAC length
	b[5] = 4 // IPv4 length
	binary.BigEndian.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderMAC[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetMAC[:])
	copy(b[24:28], p.TargetIP[:])
}

// ParseARPPacket unmarshals an ARP payload.
func ParseARPPacket(b []byte) (ARPPacket, error) {
	if len(b) < ARPPacketLen {
		return ARPPacket{}, fmt.Errorf("fstack: short ARP packet (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 ||
		binary.BigEndian.Uint16(b[2:4]) != EtherTypeIPv4 ||
		b[4] != 6 || b[5] != 4 {
		return ARPPacket{}, fmt.Errorf("fstack: unsupported ARP binding")
	}
	var p ARPPacket
	p.Op = binary.BigEndian.Uint16(b[6:8])
	copy(p.SenderMAC[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetMAC[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

// arpEntry is one cache binding.
type arpEntry struct {
	mac     MACAddr
	expires int64
}

// arpCacheTTL is how long a binding stays valid (ns). Point-to-point
// links never churn, so the value only matters for the expiry test.
const arpCacheTTL = 600e9

// arpPendingMax bounds the packets parked per unresolved address
// (FreeBSD holds a small queue; one slot is not enough when two flows
// race the same next hop).
const arpPendingMax = 8

// arpCache maps IPv4 addresses to MACs, with a short pending packet
// queue per unresolved address. A sharded stack shares one cache across
// every shard's view of the interface (neighbor state is read-mostly
// and not flow-affine — ARP replies always land on queue 0).
type arpCache struct {
	entries map[IPv4Addr]arpEntry
	pending map[IPv4Addr][]*pendingPacket
}

// pendingPacket is a packet parked while its next hop resolves.
type pendingPacket struct {
	payload []byte // IP packet bytes (copied)
	proto   uint16
	l4sum   bool // its mbuf's offload flag, for the replay's mbuf
}

func newARPCache() *arpCache {
	return &arpCache{
		entries: make(map[IPv4Addr]arpEntry),
		pending: make(map[IPv4Addr][]*pendingPacket),
	}
}

// lookup returns the binding if present and fresh.
func (c *arpCache) lookup(ip IPv4Addr, now int64) (MACAddr, bool) {
	e, ok := c.entries[ip]
	if !ok || now > e.expires {
		return MACAddr{}, false
	}
	return e.mac, true
}

// insert installs a binding and returns the packets parked on it.
func (c *arpCache) insert(ip IPv4Addr, mac MACAddr, now int64) []*pendingPacket {
	c.entries[ip] = arpEntry{mac: mac, expires: now + arpCacheTTL}
	p := c.pending[ip]
	delete(c.pending, ip)
	return p
}

// reset forgets every binding and parked packet — the compartment that
// learned them crashed; its successor re-resolves from scratch.
func (c *arpCache) reset() {
	clear(c.entries)
	clear(c.pending)
}

// park queues a packet waiting for ip to resolve, dropping the oldest
// beyond the queue bound.
func (c *arpCache) park(ip IPv4Addr, payload []byte, proto uint16, l4sum bool) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	q := c.pending[ip]
	if len(q) >= arpPendingMax {
		q = q[1:]
	}
	c.pending[ip] = append(q, &pendingPacket{payload: cp, proto: proto, l4sum: l4sum})
}
