package testbed

import (
	"encoding/binary"

	"repro/internal/cheri"
	"repro/internal/dpdk"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/sim"
)

// Device gates implement the paper's first future-work layout (§VI):
// "the separation of DPDK from F-Stack and the application". One cVM
// holds only the DPDK driver (and the NIC's DMA window); another holds
// F-Stack plus the application. Every RX/TX burst crosses a sealed
// gate between the two compartments, with the frames copied through a
// bounded staging buffer — neither compartment can reach the other's
// memory. A CompartmentSpec with DeviceGate set builds this layout.

// Device-gate staging layout inside the stack cVM's window (distinct
// from the GatedAPI staging): one buffer per queue pair, so shards never
// share one.
const (
	devStageOff  = 0x200000
	devStageSize = 64 * 1024
	// devBurstMax frames per crossing; 32 frames of 1514 bytes plus
	// framing fit the staging buffer.
	devBurstMax = 32
	// devL4Sum is the top bit of a stage record's length word: the
	// frame's mbuf offload flag (dpdk.Mbuf.L4Sum) crossing with it — on
	// TX the device completes the checksum, on RX it found it good. A
	// frame is at most 1514 bytes, so the bit is never a length bit.
	devL4Sum = 0x8000
)

// stageHeader is the length word of a stage record for m's frame of n
// bytes: n, with devL4Sum when m carries the offload flag.
func stageHeader(m *dpdk.Mbuf, n int) [2]byte {
	v := uint16(n)
	if m.L4Sum() {
		v |= devL4Sum
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], v)
	return hdr
}

// stageRecord decodes a stage record's length word: the frame length
// and the offload flag that crossed with it.
func stageRecord(hdr [2]byte) (length int, l4sum bool) {
	v := binary.LittleEndian.Uint16(hdr[:])
	return int(v &^ devL4Sum), v&devL4Sum != 0
}

// DevGates exports a DPDK compartment's ethdev as sealed entry points;
// every call names the queue pair it is for.
type DevGates struct {
	rx, tx, poll *intravisor.Gate
	mac          [6]byte
	// dev is the inner device, retained for deadline queries only:
	// NextDeadline is simulator introspection, not modeled datapath,
	// so it must not burn a gate crossing (which would perturb the
	// crossing counts the tick-stepped reference produces).
	dev *dpdk.EthDev
}

// NewDevGates wraps dev (owned by dpdkCVM, with buffers in devPool)
// into cross-compartment gates for stackEnv, whose shard q polls queue q.
func NewDevGates(iv *intravisor.Intravisor, dpdkCVM *intravisor.CVM, dev *dpdk.EthDev, devPool *dpdk.Mempool, stackEnv *Env) (*DevGates, error) {
	mem := iv.Mem()
	g := &DevGates{mac: dev.MAC(), dev: dev}
	// queue checks the queue index a caller passed across the boundary.
	queue := func(v uint64) (int, bool) { return int(v), v < uint64(dev.NumRxQueues()) }
	// A call runs on the thread of the queue it names, which runs the
	// driver's code too; one naming no queue, on its caller's own.
	on := func(c *intravisor.CVM, a hostos.Args) (*sim.Core, *sim.Core) {
		if q, ok := queue(a[0]); ok {
			return stackEnv.Stacks()[q].Core, stackEnv.Stacks()[q].Core
		}
		return &c.Core, &c.Core
	}
	// mk seals fn for the queue a[0] names (EINVAL for any other); a call
	// that moves no frame is a poll, EAGAIN. The first failure sticks.
	var err error
	mk := func(fn func(q int, a hostos.Args, buf cheri.Cap) (uint64, hostos.Errno)) (gate *intravisor.Gate) {
		if err == nil {
			gate, err = iv.NewGateOn(dpdkCVM, on, func(_ *intravisor.CVM, a hostos.Args, buf cheri.Cap) (uint64, hostos.Errno) {
				q, ok := queue(a[0])
				if !ok {
					return 0, hostos.EINVAL
				}
				if r, errno := fn(q, a, buf); r > 0 || errno != hostos.OK {
					return r, errno
				}
				return 0, hostos.EAGAIN
			})
		}
		return gate
	}
	// burst checks a frame count and the staging capability it came with:
	// a burst the stage cannot hold is refused whole, before a frame is
	// harvested for it and lost.
	burst := func(v uint64, stage cheri.Cap) (int, hostos.Errno) {
		return crossedLen(v, devStageSize/devBurstMax, 0, devBurstMax, stage)
	}
	// rx: harvest up to a[1] frames from queue a[0]; pack [u16 len][bytes]...
	// (stageHeader) through the caller's staging capability, checked
	// writable before a frame is harvested for it; returns the frame
	// count.
	g.rx = mk(func(q int, a hostos.Args, stage cheri.Cap) (uint64, hostos.Errno) {
		n, errno := burst(a[1], stage)
		if errno != hostos.OK {
			return 0, errno
		}
		out, err := mem.CheckedSlice(stage, stage.Addr(), n*devStageSize/devBurstMax)
		if err != nil {
			return 0, hostos.EFAULT
		}
		var bufs [devBurstMax]*dpdk.Mbuf
		k := dev.RxBurstQ(q, bufs[:n])
		off, packed := 0, 0
		for _, m := range bufs[:k] {
			if data, err := m.BytesRO(); err == nil && off+2+len(data) <= len(out) {
				hdr := stageHeader(m, len(data))
				copy(out[off:], hdr[:])
				off += 2 + copy(out[off+2:], data)
				packed++
			}
			m.Free()
		}
		return uint64(packed), hostos.OK
	})
	// tx: unpack a[1] frames from the staging capability into the DPDK
	// compartment's own mbufs and transmit on queue a[0]; returns the
	// accepted count.
	g.tx = mk(func(q int, a hostos.Args, stage cheri.Cap) (uint64, hostos.Errno) {
		n, errno := burst(a[1], stage)
		if errno != hostos.OK {
			return 0, errno
		}
		addr := stage.Addr()
		accepted := 0
		for i := 0; i < n; i++ {
			var hdr [2]byte
			if mem.Load(stage, addr, hdr[:]) != nil {
				break
			}
			length, l4sum := stageRecord(hdr)
			m, ok := devPool.Get()
			if !ok {
				break
			}
			dst, err := m.Append(length)
			if err != nil || mem.Load(stage, addr+2, dst) != nil {
				m.Free()
				break
			}
			if l4sum {
				m.SetL4Sum()
			}
			if dev.TxBurstQ(q, []*dpdk.Mbuf{m}) != 1 {
				m.Free()
				break
			}
			addr += 2 + uint64(length)
			accepted++
		}
		return uint64(accepted), hostos.OK
	})
	g.poll = mk(func(q int, _ hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		dev.PollQ(q)
		return 0, hostos.OK
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// GatedEthDev is the stack-compartment side of one queue pair: it
// satisfies fstack.EthDevice, crossing into the DPDK compartment per
// burst.
type GatedEthDev struct {
	g      *DevGates
	caller *intravisor.CVM // the F-Stack cVM
	pool   *dpdk.Mempool   // stack-side pool for harvested frames
	q      uint64          // the queue pair, as the gates take it
}

var _ fstack.EthDevice = (*GatedEthDev)(nil)

// NewGatedEthDev wires the stack cVM to queue pair q of the device
// gates.
func NewGatedEthDev(g *DevGates, stackCVM *intravisor.CVM, pool *dpdk.Mempool, q int) *GatedEthDev {
	return &GatedEthDev{g: g, caller: stackCVM, pool: pool, q: uint64(q)}
}

// stageAddr is this queue's staging buffer in the caller's window.
func (d *GatedEthDev) stageAddr() uint64 {
	return d.caller.Base() + devStageOff + d.q*devStageSize
}

// stage derives the staging capability for one crossing.
func (d *GatedEthDev) stage() (cheri.Cap, error) {
	return d.caller.DeriveBuf(d.stageAddr(), devStageSize)
}

// MAC returns the port's hardware address (cached at gate creation).
func (d *GatedEthDev) MAC() [6]byte { return d.g.mac }

// RxBurst pulls frames across the compartment boundary into stack-side
// mbufs.
func (d *GatedEthDev) RxBurst(out []*dpdk.Mbuf) int {
	want := min(len(out), devBurstMax)
	if want == 0 {
		return 0
	}
	stage, err := d.stage()
	if err != nil {
		return 0
	}
	r, errno := d.g.rx.Call(d.caller, hostos.Args{d.q, uint64(want)}, stage)
	if errno != hostos.OK || r == 0 || r > uint64(want) {
		return 0
	}
	addr := d.stageAddr()
	got := 0
	for i := 0; i < int(r); i++ {
		var hdr [2]byte
		if d.caller.Load(addr, hdr[:]) != nil {
			break
		}
		length, l4sum := stageRecord(hdr)
		m, ok := d.pool.Get()
		if !ok {
			break // frames beyond this point are lost, as on pool exhaustion
		}
		dst, err := m.Append(length)
		if err != nil || d.caller.Load(addr+2, dst) != nil {
			m.Free()
			break
		}
		if l4sum {
			m.SetL4Sum()
		}
		out[got] = m
		got++
		addr += 2 + uint64(length)
	}
	return got
}

// TxBurst pushes frames across the boundary; accepted mbufs are freed
// here (ownership passes to the driver, as with the direct ethdev).
func (d *GatedEthDev) TxBurst(bufs []*dpdk.Mbuf) int {
	n := min(len(bufs), devBurstMax)
	if n == 0 {
		return 0
	}
	stage, err := d.stage()
	if err != nil {
		return 0
	}
	addr := d.stageAddr()
	packed := 0
	for _, m := range bufs[:n] {
		data, err := m.BytesRO()
		if err != nil {
			break
		}
		hdr := stageHeader(m, len(data))
		if d.caller.Store(addr, hdr[:]) != nil || d.caller.Store(addr+2, data) != nil {
			break
		}
		addr += 2 + uint64(len(data))
		packed++
	}
	r, errno := d.g.tx.Call(d.caller, hostos.Args{d.q, uint64(packed)}, stage)
	if errno != hostos.OK || r > uint64(packed) {
		return 0
	}
	for i := 0; i < int(r); i++ {
		bufs[i].Free()
	}
	return int(r)
}

// Poll advances the device across the gate.
func (d *GatedEthDev) Poll() {
	d.g.poll.Call(d.caller, hostos.Args{d.q}, cheri.NullCap)
}

// NextDeadline asks the inner device's queue handle directly — no gate
// crossing; see the DevGates.dev comment.
func (d *GatedEthDev) NextDeadline(now int64) int64 {
	return d.g.dev.Queue(int(d.q)).NextDeadline(now)
}
