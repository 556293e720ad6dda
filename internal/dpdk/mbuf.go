package dpdk

import "fmt"

// MbufHeadroom is the reserved space before packet data
// (RTE_PKTMBUF_HEADROOM); protocol layers prepend headers into it.
const MbufHeadroom = 128

// DefaultDataroom fits an MTU-1500 Ethernet frame plus headroom.
const DefaultDataroom = 2048 + MbufHeadroom

// Mbuf is a single-segment packet buffer. Chained (multi-segment) mbufs
// are not modelled: the dataroom exceeds the 1514-byte maximum frame, so
// the stack never needs chaining.
type Mbuf struct {
	pool *Mempool
	buf  uint64 // base address of the data room
	room uint16 // data room size

	off uint16 // data offset from buf
	len uint16 // data length

	// l4sum is the one offload flag (rte_mbuf's ol_flags) this model
	// keeps. On a TX mbuf the stack sets it: the TCP or UDP checksum
	// field holds only the pseudo-header sum, and the device completes
	// it (RTE_MBUF_F_TX_TCP_CKSUM, _UDP_CKSUM). On an RX mbuf the driver
	// sets it: the device checked that checksum and found it good
	// (RTE_MBUF_F_RX_L4_CKSUM_GOOD). Cleared when the mbuf is freed.
	l4sum bool
}

// DataAddr returns the address of the first payload byte.
func (m *Mbuf) DataAddr() uint64 { return m.buf + uint64(m.off) }

// Len returns the payload length.
func (m *Mbuf) Len() int { return int(m.len) }

// Tailroom returns the unused space after the payload.
func (m *Mbuf) Tailroom() int { return int(m.room - m.off - m.len) }

// reset rewinds the mbuf to headroom-only, zero length, no offload.
func (m *Mbuf) reset() {
	m.off = MbufHeadroom
	m.len = 0
	m.l4sum = false
}

// SetL4Sum sets the mbuf's offload flag: on a frame to transmit, the
// device completes its transport checksum; on a received one, the
// device found that checksum good.
func (m *Mbuf) SetL4Sum() { m.l4sum = true }

// L4Sum reports the offload flag (SetL4Sum).
func (m *Mbuf) L4Sum() bool { return m.l4sum }

// Append grows the payload by n bytes at the tail and returns a writable
// view of the new region (capability-checked in CHERI mode).
func (m *Mbuf) Append(n int) ([]byte, error) {
	if n < 0 || n > m.Tailroom() {
		return nil, fmt.Errorf("dpdk: append %d exceeds tailroom %d", n, m.Tailroom())
	}
	addr := m.buf + uint64(m.off+m.len)
	m.len += uint16(n)
	return m.pool.seg.Slice(addr, n)
}

// SetLen forces the payload length (used by RX harvest: the device wrote
// the bytes already).
func (m *Mbuf) SetLen(n int) error {
	if n < 0 || n > int(m.room-m.off) {
		return fmt.Errorf("dpdk: length %d exceeds room", n)
	}
	m.len = uint16(n)
	return nil
}

// BytesRO returns a read-only view of the whole payload.
func (m *Mbuf) BytesRO() ([]byte, error) {
	return m.pool.seg.SliceRO(m.DataAddr(), m.Len())
}

// Free returns the mbuf to its pool.
func (m *Mbuf) Free() { m.pool.put(m) }

// Mempool is a fixed-population mbuf allocator over a memory segment.
type Mempool struct {
	seg  *MemSeg
	name string

	free  []*Mbuf
	total int
}

// NewMempool carves n mbufs of the given dataroom out of seg, none
// across a hugepage boundary (objectAt).
func NewMempool(seg *MemSeg, name string, n int, dataroom uint16) (*Mempool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dpdk: mempool %q needs a positive population", name)
	}
	if dataroom < MbufHeadroom+64 {
		return nil, fmt.Errorf("dpdk: mempool %q dataroom %d too small", name, dataroom)
	}
	p := &Mempool{seg: seg, name: name, total: n}
	base := seg.aligned(64)
	if _, err := p.seg.Alloc(poolBytes(seg, base, n, uint64(dataroom)), 64); err != nil {
		return nil, fmt.Errorf("dpdk: mempool %q: %w", name, err)
	}
	// The headers are one slab, as a DPDK mempool lays its objects out
	// in one array: a pool costs the same few allocations at any size.
	mbufs := make([]Mbuf, n)
	p.free = make([]*Mbuf, n)
	addr := base
	for i := range mbufs {
		addr = objectAt(seg, addr, uint64(dataroom))
		m := &mbufs[i]
		*m = Mbuf{pool: p, buf: addr, room: dataroom}
		m.reset()
		p.free[i] = m
		addr += uint64(dataroom)
	}
	return p, nil
}

// objectAt is where a pool object of size bytes goes at or after addr:
// addr itself, or the next hugepage boundary if the object would cross
// one there. No object straddles two hugepages (rte_mempool's rule on
// hugepage memory), so every view of an mbuf's data room is one a
// hugepage holds.
func objectAt(seg *MemSeg, addr, size uint64) uint64 {
	if end := seg.PageEnd(addr); addr+size > end {
		return end
	}
	return addr
}

// poolBytes is the footprint of n objects of size bytes laid out from
// base: n·size plus the tail of every hugepage too short for the next
// object.
func poolBytes(seg *MemSeg, base uint64, n int, size uint64) uint64 {
	addr := base
	for range n {
		addr = objectAt(seg, addr, size) + size
	}
	return addr - base
}

// Name returns the pool's name.
func (p *Mempool) Name() string { return p.name }

// Get allocates an mbuf; ok is false when the pool is exhausted.
func (p *Mempool) Get() (*Mbuf, bool) {
	if len(p.free) == 0 {
		return nil, false
	}
	m := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return m, true
}

// put returns an mbuf to the pool.
func (p *Mempool) put(m *Mbuf) {
	m.reset()
	if len(p.free) >= p.total {
		panic(fmt.Sprintf("dpdk: mempool %q double free", p.name))
	}
	p.free = append(p.free, m)
}
