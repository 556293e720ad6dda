package nic

import "encoding/binary"

// Receive-side scaling (RSS), 82576-style: the device hashes each
// arriving IPv4 frame's flow tuple with a Toeplitz hash, indexes a
// 128-entry redirection table (RETA) with the low 7 hash bits, and
// places the frame in the RX queue the entry names. Non-IP traffic
// (ARP) and anything the hash does not cover lands in queue 0, which
// therefore must always be served.
//
// The driver programs the 40-byte hash key through RSSRK, the table
// through RETA, and enables the engine through MRQC. With MRQC disabled
// (reset state) every frame goes to queue 0 and the device behaves
// exactly like the single-queue model it grew out of.

// MaxQueues is the number of RX/TX queue pairs the device exposes (the
// real 82576 has 16; 8 is plenty for the scaling scenarios).
const MaxQueues = 8

// RSSKeyLen is the Toeplitz key size in bytes (RSSRK is 10 dwords).
const RSSKeyLen = 40

// RetaEntries is the redirection table size (32 dwords of 4 entries).
const RetaEntries = 128

// ToeplitzHash computes the RSS Toeplitz hash of data under key: for
// every set bit i of the input, XOR in the 32-bit window of the key
// starting at bit i. It is the specification; frames are hashed through
// the byte table built from it (RSSHashTuple).
func ToeplitzHash(key, data []byte) uint32 {
	var h uint32
	for i, b := range data {
		for bit := 0; bit < 8; bit++ {
			if b&(0x80>>bit) != 0 {
				h ^= keyWindow(key, i*8+bit)
			}
		}
	}
	return h
}

// keyWindow extracts 32 key bits starting at bit offset off (bits are
// numbered MSB-first, as the RSS specification does).
func keyWindow(key []byte, off int) uint32 {
	byteOff, shift := off/8, off%8
	var v uint64
	for j := 0; j < 5; j++ {
		v <<= 8
		if byteOff+j < len(key) {
			v |= uint64(key[byteOff+j])
		}
	}
	return uint32(v >> (8 - shift))
}

// DefaultRSSKey returns the well-known Microsoft verification key, the
// full-entropy default every RSS driver ships. Symmetry does NOT come
// from the key (the repeating-0x6d5a "symmetric key" trick collapses
// the hash space badly — adjacent port pairs land on two queues out of
// eight): it comes from the canonical endpoint ordering RSSHashTuple
// applies before hashing, the same construction as DPDK's
// symmetric_toeplitz hash function.
func DefaultRSSKey() [RSSKeyLen]byte {
	return [RSSKeyLen]byte{
		0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
		0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
		0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
		0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
		0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
	}
}

// endpointLess orders (ip, port) endpoints lexicographically.
func endpointLess(aIP [4]byte, aPort uint16, bIP [4]byte, bPort uint16) bool {
	for i := range aIP {
		if aIP[i] != bIP[i] {
			return aIP[i] < bIP[i]
		}
	}
	return aPort < bPort
}

// buildRSSTable fills tab for key: tab[i][b] is the Toeplitz hash of an
// input whose only nonzero byte is b at offset i (12 bytes is the longest
// input the classifier hashes) — which is the hash of the one byte b
// under the key shifted i bytes. The hash is linear over XOR, so the
// eight one-bit entries of a byte position, taken from ToeplitzHash,
// give the other 247, and a whole input's hash is one lookup per byte.
func buildRSSTable(tab *[12][256]uint32, key []byte) {
	for i := range tab {
		for bit := 0; bit < 8; bit++ {
			w := ToeplitzHash(key[i:], []byte{1 << bit})
			for b := 1 << bit; b < 2<<bit; b++ {
				tab[i][b] = tab[i][b-(1<<bit)] ^ w
			}
		}
	}
}

// RSSHashTuple hashes an IPv4 flow tuple the way the device hashes an
// arriving frame: 4-tuple for TCP/UDP, 2-tuple for other IP protocols,
// through the byte table of the programmed key (see buildRSSTable).
// The endpoints are put in canonical (smaller-first) order before
// hashing, so hash(src,dst,sport,dport) == hash(dst,src,dport,sport)
// and both directions of a flow select the same queue — which is what
// lets a sharded stack keep a connection's whole lifecycle on one
// shard.
func RSSHashTuple(tab *[12][256]uint32, src, dst [4]byte, proto byte, sport, dport uint16) uint32 {
	if !endpointLess(src, sport, dst, dport) {
		src, dst = dst, src
		sport, dport = dport, sport
	}
	h := tab[0][src[0]] ^ tab[1][src[1]] ^ tab[2][src[2]] ^ tab[3][src[3]] ^
		tab[4][dst[0]] ^ tab[5][dst[1]] ^ tab[6][dst[2]] ^ tab[7][dst[3]]
	if proto == protoTCP || proto == protoUDP {
		h ^= tab[8][byte(sport>>8)] ^ tab[9][byte(sport)] ^ tab[10][byte(dport>>8)] ^ tab[11][byte(dport)]
	}
	return h
}

// IP protocol numbers the hash engine distinguishes.
const (
	protoTCP = 6
	protoUDP = 17
)

// Frame-parse offsets for the classifier (Ethernet II + IPv4).
const (
	etherTypeOff  = 12
	etherTypeIPv4 = 0x0800
	ipHeaderOff   = 14
)

// classify maps a received frame to its RX queue per the current RSS
// configuration.
func (p *Port) classify(data []byte) int {
	if p.regs.mrqc&MRQCEnable == 0 {
		return 0
	}
	nq := int(p.regs.mrqc>>MRQCQueueShift) & 0xF
	if nq > MaxQueues {
		nq = MaxQueues // defensive: the field is wider than the device
	}
	if nq <= 1 {
		return 0
	}
	// Non-IP (ARP, LLDP, ...) or truncated: queue 0.
	if len(data) < ipHeaderOff+IPv4MinHeader ||
		binary.BigEndian.Uint16(data[etherTypeOff:]) != etherTypeIPv4 {
		return 0
	}
	ip := data[ipHeaderOff:]
	ihl := int(ip[0]&0x0F) * 4
	if ihl < IPv4MinHeader || len(ip) < ihl {
		return 0
	}
	proto := ip[9]
	var src, dst [4]byte
	copy(src[:], ip[12:16])
	copy(dst[:], ip[16:20])
	var sport, dport uint16
	if (proto == protoTCP || proto == protoUDP) && len(ip) >= ihl+4 {
		sport = binary.BigEndian.Uint16(ip[ihl:])
		dport = binary.BigEndian.Uint16(ip[ihl+2:])
	}
	h := RSSHashTuple(&p.rssTab, src, dst, proto, sport, dport)
	q := int(p.regs.reta[h&(RetaEntries-1)])
	if q >= nq {
		q = 0
	}
	return q
}

// IPv4MinHeader is the minimum IPv4 header length the classifier needs.
const IPv4MinHeader = 20
