package nic

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// refRSSHashTuple is the hash RSSHashTuple replaced, kept as the
// reference: canonical endpoint order, then the bit-serial Toeplitz over
// 12 input bytes (TCP/UDP) or 8 (any other IP protocol).
func refRSSHashTuple(key []byte, src, dst [4]byte, proto byte, sport, dport uint16) uint32 {
	if !endpointLess(src, sport, dst, dport) {
		src, dst = dst, src
		sport, dport = dport, sport
	}
	var in [12]byte
	copy(in[0:4], src[:])
	copy(in[4:8], dst[:])
	if proto == protoTCP || proto == protoUDP {
		binary.BigEndian.PutUint16(in[8:10], sport)
		binary.BigEndian.PutUint16(in[10:12], dport)
		return ToeplitzHash(key, in[:12])
	}
	return ToeplitzHash(key, in[:8])
}

// refClassify is classify as it was before the byte table: parse,
// hash bit by bit under the key the registers hold, index RETA.
func refClassify(p *Port, data []byte) int {
	if p.regs.mrqc&MRQCEnable == 0 {
		return 0
	}
	nq := min(int(p.regs.mrqc>>MRQCQueueShift)&0xF, MaxQueues)
	if nq <= 1 {
		return 0
	}
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
	h := refRSSHashTuple(p.regs.rssKey[:], src, dst, proto, sport, dport)
	q := int(p.regs.reta[h&(RetaEntries-1)])
	if q >= nq {
		q = 0
	}
	return q
}

// tableFor builds the byte table of key.
func tableFor(key []byte) *[12][256]uint32 {
	tab := new([12][256]uint32)
	buildRSSTable(tab, key)
	return tab
}

// ipv4Frame is a minimal Ethernet+IPv4 frame carrying the flow tuple.
func ipv4Frame(src, dst [4]byte, proto byte, sport, dport uint16) []byte {
	f := make([]byte, ipHeaderOff+IPv4MinHeader+4)
	binary.BigEndian.PutUint16(f[etherTypeOff:], etherTypeIPv4)
	ip := f[ipHeaderOff:]
	ip[0], ip[9] = 0x45, proto
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	binary.BigEndian.PutUint16(ip[20:], sport)
	binary.BigEndian.PutUint16(ip[22:], dport)
	return f
}

// programRSS writes key, an identity-modulo RETA and MRQC the way the
// driver does, one dword at a time.
func programRSS(p *Port, key [RSSKeyLen]byte, nq uint32) {
	for i := 0; i < RSSKeyLen; i += 4 {
		p.RegWrite32(RegRSSRK+uint64(i), binary.LittleEndian.Uint32(key[i:i+4]))
	}
	programRETA(p, nq)
}

// programRETA enables the engine over nq queues, leaving the key alone.
func programRETA(p *Port, nq uint32) {
	for i := uint32(0); i < RetaEntries; i += 4 {
		p.RegWrite32(RegRETA+uint64(i), i%nq|(i+1)%nq<<8|(i+2)%nq<<16|(i+3)%nq<<24)
	}
	p.RegWrite32(RegMRQC, MRQCEnable|nq<<MRQCQueueShift)
}

// TestRSSTableMatchesToeplitz: the byte table computes the bit-serial
// hash for every input length the classifier produces — 12 bytes
// (TCP/UDP) and 8 (other protocols) — under the Microsoft key, random
// keys and the all-ones key, on the verification vectors and on random
// tuples.
func TestRSSTableMatchesToeplitz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	keys := [][RSSKeyLen]byte{DefaultRSSKey(), {}}
	for i := range keys[1] {
		keys[1][i] = 0xFF
	}
	for k := 0; k < 8; k++ {
		var key [RSSKeyLen]byte
		rng.Read(key[:])
		keys = append(keys, key)
	}
	for _, key := range keys {
		tab := tableFor(key[:])
		for i := 0; i < 1000; i++ {
			var src, dst [4]byte
			rng.Read(src[:])
			rng.Read(dst[:])
			sport, dport := uint16(rng.Uint32()), uint16(rng.Uint32())
			for _, proto := range []byte{protoTCP, protoUDP, 1, byte(rng.Uint32())} {
				got := RSSHashTuple(tab, src, dst, proto, sport, dport)
				if want := refRSSHashTuple(key[:], src, dst, proto, sport, dport); got != want {
					t.Fatalf("key %x: %v:%d -> %v:%d proto %d: table %08x, bit-serial %08x",
						key[:4], src, sport, dst, dport, proto, got, want)
				}
			}
		}
	}
	// The published vectors, hashed in the order published (RSSHashTuple
	// would reorder the endpoints): one lookup per input byte.
	tab := tableFor(keys[0][:])
	for _, c := range microsoftVectors {
		var in [12]byte
		copy(in[0:4], c.src[:])
		copy(in[4:8], c.dst[:])
		binary.BigEndian.PutUint16(in[8:10], c.sport)
		binary.BigEndian.PutUint16(in[10:12], c.dport)
		var got uint32
		for i, b := range in {
			got ^= tab[i][b]
		}
		if got != c.want {
			t.Errorf("table(%v:%d -> %v:%d) = %08x, want %08x", c.src, c.sport, c.dst, c.dport, got, c.want)
		}
	}
}

// TestRSSTableFollowsTheKey is the stale-table bug class: after the key
// is rewritten dword by dword, after CTRL.RST, and after the key is
// programmed again, the classifier must agree with the bit-serial hash
// under the key the registers hold *now*. A missed rebuild fails on the
// first differing tuple.
func TestRSSTableFollowsTheKey(t *testing.T) {
	be := newBench(t, 0)
	p := be.b
	rng := rand.New(rand.NewSource(23))
	check := func(when string) {
		t.Helper()
		queues := map[int]bool{}
		for i := 0; i < 500; i++ {
			var src, dst [4]byte
			rng.Read(src[:])
			rng.Read(dst[:])
			f := ipv4Frame(src, dst, []byte{protoTCP, protoUDP, 1}[i%3], uint16(rng.Uint32()), uint16(rng.Uint32()))
			got, want := p.classify(f), refClassify(p, f)
			if got != want {
				t.Fatalf("%s: frame %d steered to queue %d, bit-serial hash says %d", when, i, got, want)
			}
			queues[got] = true
		}
		if p.regs.rssKey != ([RSSKeyLen]byte{}) && len(queues) < 4 {
			t.Fatalf("%s: 500 random flows reached only queues %v", when, queues)
		}
	}
	programRSS(p, DefaultRSSKey(), 8)
	check("default key")

	var key [RSSKeyLen]byte
	rng.Read(key[:])
	for i := 0; i < RSSKeyLen; i += 4 {
		p.RegWrite32(RegRSSRK+uint64(i), binary.LittleEndian.Uint32(key[i:i+4]))
		check("key half rewritten") // every intermediate key is a key too
	}

	p.RegWrite32(RegCTRL, CtrlRST)
	programRETA(p, 8)
	check("after reset") // zero key: every hash is 0, so every frame is RETA[0]'s

	programRSS(p, DefaultRSSKey(), 8)
	check("reprogrammed after reset")
}

// FuzzRSSClassify feeds the classifier arbitrary frame bytes — truncated
// headers, odd IHL, non-IP — under arbitrary keys and queue counts: it
// must never panic, always name a queue the MRQC field allows, and
// agree with the reference classifier.
func FuzzRSSClassify(f *testing.F) {
	def := DefaultRSSKey()
	tcp := ipv4Frame([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, protoTCP, 40000, 5201)
	f.Add(tcp, def[:], uint8(8))
	f.Add(tcp[:ipHeaderOff+IPv4MinHeader], def[:], uint8(4)) // ports cut off
	f.Add(tcp[:20], def[:], uint8(8))                        // truncated IP header
	f.Add([]byte{}, def[:], uint8(2))
	opts := append([]byte(nil), tcp...)
	opts[ipHeaderOff] = 0x4F // IHL 60 > frame
	f.Add(opts, def[:], uint8(8))
	opts = append([]byte(nil), tcp...)
	opts[ipHeaderOff] = 0x43 // IHL 12 < minimum
	f.Add(opts, def[:], uint8(8))
	arp := append([]byte(nil), tcp...)
	arp[etherTypeOff], arp[etherTypeOff+1] = 0x08, 0x06
	f.Add(arp, def[:], uint8(8))
	f.Add(ipv4Frame([4]byte{1, 2, 3, 4}, [4]byte{4, 3, 2, 1}, 1, 0, 0), make([]byte, RSSKeyLen), uint8(15))

	f.Fuzz(func(t *testing.T, frame, keyBytes []byte, nq uint8) {
		var p Port
		copy(p.regs.rssKey[:], keyBytes)
		buildRSSTable(&p.rssTab, p.regs.rssKey[:])
		for i := range p.regs.reta {
			p.regs.reta[i] = byte(i) // entries past nq must fold to queue 0
		}
		p.regs.mrqc = MRQCEnable | uint32(nq&0xF)<<MRQCQueueShift
		got := p.classify(frame)
		if limit := max(1, min(int(nq&0xF), MaxQueues)); got < 0 || got >= limit {
			t.Fatalf("queue %d outside [0,%d)", got, limit)
		}
		if want := refClassify(&p, frame); got != want {
			t.Fatalf("classified to %d, reference says %d", got, want)
		}
	})
}

// microsoftVectors are the published RSS verification-suite vectors for
// the default key (IPv4 with ports).
var microsoftVectors = []struct {
	src, dst     [4]byte
	sport, dport uint16
	want         uint32
}{
	{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 2794, 1766, 0x51ccc178},
	{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea},
	{[4]byte{24, 19, 198, 95}, [4]byte{12, 22, 207, 184}, 12898, 38024, 0x5c2b394a},
	{[4]byte{38, 27, 205, 30}, [4]byte{209, 142, 163, 6}, 48228, 2217, 0xafc7327f},
	{[4]byte{153, 39, 163, 191}, [4]byte{202, 188, 127, 2}, 44251, 1303, 0x10e828a2},
}

// TestToeplitzMicrosoftVectors checks the hash against the published
// RSS verification-suite vectors for the default key (IPv4 with ports:
// input = src addr | dst addr | src port | dst port).
func TestToeplitzMicrosoftVectors(t *testing.T) {
	key := DefaultRSSKey()
	for _, c := range microsoftVectors {
		var in [12]byte
		copy(in[0:4], c.src[:])
		copy(in[4:8], c.dst[:])
		binary.BigEndian.PutUint16(in[8:10], c.sport)
		binary.BigEndian.PutUint16(in[10:12], c.dport)
		if got := ToeplitzHash(key[:], in[:]); got != c.want {
			t.Errorf("toeplitz(%v:%d -> %v:%d) = %08x, want %08x",
				c.src, c.sport, c.dst, c.dport, got, c.want)
		}
	}
}

// TestRSSHashSymmetric is the steering invariant the sharded stack
// rests on: both directions of any flow produce the same hash, hence
// the same queue, hence the same shard.
func TestRSSHashSymmetric(t *testing.T) {
	key := DefaultRSSKey()
	tab := tableFor(key[:])
	f := func(src, dst [4]byte, proto byte, sport, dport uint16) bool {
		a := RSSHashTuple(tab, src, dst, proto, sport, dport)
		b := RSSHashTuple(tab, dst, src, proto, dport, sport)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

// TestRSSHashDeterministic: the hash is a pure function of the tuple.
func TestRSSHashDeterministic(t *testing.T) {
	key := DefaultRSSKey()
	tab := tableFor(key[:])
	f := func(src, dst [4]byte, sport, dport uint16) bool {
		a := RSSHashTuple(tab, src, dst, 6, sport, dport)
		b := RSSHashTuple(tab, src, dst, 6, sport, dport)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRSSHashSpread: random tuples must use the whole queue range
// reasonably evenly (the repeating-key construction this replaced put
// everything on a quarter of the queues).
func TestRSSHashSpread(t *testing.T) {
	key := DefaultRSSKey()
	tab := tableFor(key[:])
	const nq = 8
	counts := make([]int, nq)
	var seed uint32 = 1
	next := func() uint32 { seed = seed*1664525 + 1013904223; return seed }
	const n = 8192
	for i := 0; i < n; i++ {
		var src, dst [4]byte
		binary.BigEndian.PutUint32(src[:], next())
		binary.BigEndian.PutUint32(dst[:], next())
		h := RSSHashTuple(tab, src, dst, 6, uint16(next()), uint16(next()))
		counts[int(h&(RetaEntries-1))%nq]++
	}
	for q, c := range counts {
		if c < n/nq/2 || c > n/nq*2 {
			t.Fatalf("queue %d got %d of %d flows; distribution %v", q, c, n, counts)
		}
	}
}
