package fstack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/checksum"
)

// refSumBytes is the byte-pair loop checksum.Add used to be, kept here
// as the reference the word-wide implementation is checked against. Its
// 32-bit accumulator silently drops a carry once the total passes 2^32,
// which no real segment approaches (a pseudo-header sum is under 2^19,
// an MTU of all-ones adds under 2^26) — so the tests keep initial sums
// to 31 bits and inputs to 32 KiB, where the reference is exact.
func refSumBytes(sum uint32, data []byte) uint32 {
	n := len(data) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	return sum
}

// checkAgainstRef compares the finished checksum (the only thing
// callers see of the running sum) for one input and one initial sum.
func checkAgainstRef(t *testing.T, sum uint32, data []byte) {
	t.Helper()
	if got, want := checksum.Finish(checksum.Add(sum, data)), checksum.Finish(refSumBytes(sum, data)); got != want {
		t.Fatalf("len %d, initial sum %#x: checksum %#04x, reference %#04x", len(data), sum, got, want)
	}
}

// checksumCorpus is the shared seed set of the differential test and
// the fuzz target: the carry-saturating all-0xFF case, all zeros (the
// one input whose sum is zero), odd tails at every loop boundary, and
// single words whose 64-bit sum carries out of each step of the final
// fold (0x1_FFFF_0000 after the first, then 0x1FFFF, then 0x10000).
func checksumCorpus() [][]byte {
	corpus := [][]byte{nil, {0}, {0xFF}, {0x12, 0x34, 0x56}}
	for _, n := range []int{2, 4, 7, 8, 9, 31, 32, 33, 39, 40, 41, 63, 64, 65, 1459, 1460, 1461, 1600} {
		corpus = append(corpus, bytes.Repeat([]byte{0xFF}, n), make([]byte, n))
	}
	for _, w := range []uint64{0xFFFFFFFF_FFFF0001, 0x0000FFFF_FFFF0000, 0x00000001_0000FFFF, 0xFFFFFFFF_00000001} {
		corpus = append(corpus, binary.LittleEndian.AppendUint64(nil, w))
	}
	return corpus
}

func TestChecksumMatchesBytePairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pseudo := pseudoHeaderSum(IPv4Addr{10, 0, 0, 1}, IPv4Addr{10, 0, 0, 2}, ProtoTCP, 1480)
	for _, data := range checksumCorpus() {
		for _, sum := range []uint32{0, pseudo, 0xFFFF, 0x7FFFFFFF} {
			checkAgainstRef(t, sum, data)
		}
	}
	// Every length the stack can produce, at random offsets into a random
	// buffer so the 8-byte loads see every alignment.
	buf := make([]byte, 1600+8)
	for n := 0; n <= 1600; n++ {
		rng.Read(buf)
		off := rng.Intn(8)
		checkAgainstRef(t, 0, buf[off:off+n])
		checkAgainstRef(t, pseudo, buf[off:off+n])
		checkAgainstRef(t, rng.Uint32()>>1, buf[off:off+n])
	}
	// Saturation: all-ones data of every length wraps the end-around
	// carry as often as any input can.
	ones := bytes.Repeat([]byte{0xFF}, 1600)
	for n := 0; n <= 1600; n++ {
		checkAgainstRef(t, 0x7FFFFFFF, ones[:n])
	}
}

// A checksum inserted into a segment must verify to zero when the
// receiver sums the whole segment — the property RX relies on.
func TestChecksumVerifiesToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, dst := IPv4Addr{192, 168, 0, 1}, IPv4Addr{192, 168, 0, 2}
	for n := 20; n <= 1480; n += 73 {
		seg := make([]byte, n)
		rng.Read(seg)
		seg[16], seg[17] = 0, 0
		cs := transportChecksum(src, dst, ProtoTCP, seg)
		seg[16], seg[17] = byte(cs>>8), byte(cs)
		if got := transportChecksum(src, dst, ProtoTCP, seg); got != 0 {
			t.Fatalf("len %d: verifying sum = %#04x, want 0", n, got)
		}
		seg[n/2] ^= 0x40
		if transportChecksum(src, dst, ProtoTCP, seg) == 0 {
			t.Fatalf("len %d: a flipped bit still verifies", n)
		}
	}
}

func FuzzChecksum(f *testing.F) {
	for _, data := range checksumCorpus() {
		f.Add(uint32(0), data)
		f.Add(uint32(0x7FFFFFFF), data)
	}
	f.Fuzz(func(t *testing.T, sum uint32, data []byte) {
		checkAgainstRef(t, sum>>1, data[:min(len(data), 32<<10)])
	})
}

var checksumSink uint16

func benchmarkChecksum(b *testing.B, n int) {
	data := make([]byte, n)
	rand.New(rand.NewSource(3)).Read(data)
	b.SetBytes(int64(n))
	for b.Loop() {
		checksumSink = Checksum(data)
	}
}

func BenchmarkChecksum64(b *testing.B)   { benchmarkChecksum(b, 64) }
func BenchmarkChecksum1460(b *testing.B) { benchmarkChecksum(b, 1460) }

// putTCPHeaderEager is PutTCPHeader as it was before the NIC completed
// the checksum: the full checksum in the field, summed in software. It
// is the reference what a tap reads is held to, and how a test builds a
// segment it hands to a stack itself (which, with no NIC to vouch for
// it, verifies the segment in software).
func putTCPHeaderEager(b []byte, h TCPHeader, src, dst IPv4Addr, length int) int {
	hl := PutTCPHeader(b, h, src, dst, length)
	sumTCPEager(b[:length], src, dst)
	return hl
}

// putUDPHeaderEager is PutUDPHeader's eager reference (putTCPHeaderEager).
func putUDPHeaderEager(b []byte, h UDPHeader, src, dst IPv4Addr) {
	PutUDPHeader(b, h, src, dst)
	sumUDPEager(b[:h.Length], src, dst)
}

// sumTCPEager writes a TCP segment's checksum summed in software.
func sumTCPEager(seg []byte, src, dst IPv4Addr) {
	seg[16], seg[17] = 0, 0
	binary.BigEndian.PutUint16(seg[16:18], transportChecksum(src, dst, ProtoTCP, seg))
}

// sumUDPEager writes a UDP datagram's checksum summed in software, a
// zero sum as 0xFFFF (RFC 768: zero means "no checksum").
func sumUDPEager(seg []byte, src, dst IPv4Addr) {
	seg[6], seg[7] = 0, 0
	cs := transportChecksum(src, dst, ProtoUDP, seg)
	if cs == 0 {
		cs = 0xFFFF
	}
	binary.BigEndian.PutUint16(seg[6:8], cs)
}
