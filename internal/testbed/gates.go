package testbed

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cheri"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/intravisor"
	"repro/internal/sim"
)

// StackGates is the Scenario 2 wrapper layer: one sealed entry gate per
// exported F-Stack API function ("we also implemented the wrapper
// functions to the API of F-Stack to do the cross-compartment jump
// between the running application and the cVM1", §III-B). Every call
// crosses from the application compartment into the stack compartment
// and calls the stack's API there. The F-Stack mutex it would take is
// modelled: the gate books its cost from sim's crossing-cost table.
type StackGates struct {
	socket, bind, listen, accept, connect *intravisor.Gate
	read, write, sendTo, recvFrom, closeG *intravisor.Gate
	epCreate, epCtl, epWait               *intravisor.Gate
	// env is whose stack the gates enter, retained for WriteRoom only:
	// how much a write would load is simulator introspection, not modelled
	// datapath, so it burns no crossing (as DevGates.dev's deadlines).
	env *Env
}

// Rebind re-exports every gate after the stack compartment restarted.
// The old sealed pairs were derived from the dead incarnation's DDC;
// the supervisor mints fresh ones and the wrapper layer swaps them in
// place, so application-side GatedAPI handles keep working untouched.
func (g *StackGates) Rebind(iv *intravisor.Intravisor, stackEnv *Env) error {
	ng, err := NewStackGates(iv, stackEnv)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}

// ip4FromU64 decodes an IPv4 address passed as a scalar argument.
func ip4FromU64(v uint64) fstack.IPv4Addr {
	return fstack.IP4(byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// u64FromIP4 encodes an IPv4 address as a scalar argument.
func u64FromIP4(ip fstack.IPv4Addr) uint64 {
	return uint64(ip[0])<<24 | uint64(ip[1])<<16 | uint64(ip[2])<<8 | uint64(ip[3])
}

// sockaddrLen is a peer address as it crosses a gate: IPv4 address,
// then the port little-endian, padded to 8 bytes.
const sockaddrLen = 8

func putSockaddr(b []byte, ip fstack.IPv4Addr, port uint16) {
	copy(b[0:4], ip[:])
	binary.LittleEndian.PutUint16(b[4:6], port)
}

func getSockaddr(b []byte) (fstack.IPv4Addr, uint16) {
	return fstack.IPv4Addr{b[0], b[1], b[2], b[3]}, binary.LittleEndian.Uint16(b[4:6])
}

// capRoom is how many bytes c covers from its cursor on: 0 for an
// untagged capability or a cursor outside the bounds.
func capRoom(c cheri.Cap) uint64 {
	if !c.Tag() || c.Addr() < c.Base() || c.Addr() > c.Top() {
		return 0
	}
	return c.Top() - c.Addr()
}

// crossedLen admits a count the caller passed beside buf: at most limit
// units (what the wrapper layer's staging area holds; EINVAL past it),
// and, after hdr bytes, inside what buf covers (EFAULT past that). The
// caller is another compartment: a target converts, slices and allocates
// by an admitted count only, so no argument can trap the stack.
func crossedLen(v uint64, unit, hdr, limit int, buf cheri.Cap) (int, hostos.Errno) {
	if v > uint64(limit) {
		return 0, hostos.EINVAL
	}
	if uint64(hdr)+v*uint64(unit) > capRoom(buf) {
		return 0, hostos.EFAULT
	}
	return int(v), hostos.OK
}

// NewStackGates exports the socket API of stackEnv's stack from its
// cVM. Every target enters the calling cVM's own descriptor view, so a
// caller can act on no descriptor another caller opened. A call runs on
// the caller's thread and that of the shard its a[0] names (ShardOf).
func NewStackGates(iv *intravisor.Intravisor, stackEnv *Env) (*StackGates, error) {
	if stackEnv.CVM == nil {
		return nil, fmt.Errorf("testbed: gates need a cVM-hosted stack")
	}
	mem := iv.Mem()
	g := &StackGates{env: stackEnv}
	on := func(c *intravisor.CVM, a hostos.Args) (*sim.Core, *sim.Core) {
		return &c.Core, stackEnv.view(c).ShardOf(int(a[0])).Core
	}
	// mk seals one entry point; the first failure sticks and is returned
	// once every target is declared.
	var err error
	mk := func(fn intravisor.GateFunc) (gate *intravisor.Gate) {
		if err == nil {
			gate, err = iv.NewGateOn(stackEnv.CVM, on, fn)
		}
		return gate
	}
	g.socket = mk(func(c *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		fd, errno := stackEnv.view(c).Socket(int(a[0]))
		return uint64(fd), errno
	})
	g.bind = mk(func(c *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		return 0, stackEnv.view(c).Bind(int(a[0]), ip4FromU64(a[1]), uint16(a[2]))
	})
	g.listen = mk(func(c *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		return 0, stackEnv.view(c).Listen(int(a[0]), int(a[1]))
	})
	g.accept = mk(func(c *intravisor.CVM, a hostos.Args, addrOut cheri.Cap) (uint64, hostos.Errno) {
		// The peer address goes through the caller's sockaddr buffer,
		// checked before a connection leaves the queue for a buffer that
		// cannot take it.
		var sa []byte
		if addrOut.Tag() {
			var err error
			if sa, err = mem.CheckedSlice(addrOut, addrOut.Addr(), sockaddrLen); err != nil {
				return 0, hostos.EFAULT
			}
		}
		nfd, ip, port, errno := stackEnv.view(c).Accept(int(a[0]))
		if errno != hostos.OK {
			return 0, errno
		}
		if sa != nil {
			putSockaddr(sa, ip, port)
		}
		return uint64(nfd), hostos.OK
	})
	g.connect = mk(func(c *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		return 0, stackEnv.view(c).Connect(int(a[0]), ip4FromU64(a[1]), uint16(a[2]))
	})
	g.read = mk(func(c *intravisor.CVM, a hostos.Args, dst cheri.Cap) (uint64, hostos.Errno) {
		want, errno := crossedLen(a[1], 1, 0, stageReadSize, dst)
		if errno != hostos.OK {
			return 0, errno
		}
		n, errno := stackEnv.view(c).ReadCap(int(a[0]), mem, dst, want)
		return uint64(n), errno
	})
	g.write = mk(func(c *intravisor.CVM, a hostos.Args, src cheri.Cap) (uint64, hostos.Errno) {
		have, errno := crossedLen(a[1], 1, 0, StageWriteSize, src)
		if errno != hostos.OK {
			return 0, errno
		}
		n, errno := stackEnv.view(c).WriteCap(int(a[0]), mem, src, have)
		return uint64(n), errno
	})
	g.sendTo = mk(func(c *intravisor.CVM, a hostos.Args, src cheri.Cap) (uint64, hostos.Errno) {
		// The stack builds the datagram from the caller's staged bytes,
		// read through the capability that crossed.
		have, errno := crossedLen(a[1], 1, 0, StageWriteSize, src)
		if errno != hostos.OK {
			return 0, errno
		}
		data, err := mem.CheckedSliceRO(src, src.Addr(), have)
		if err != nil {
			return 0, hostos.EFAULT
		}
		n, errno := stackEnv.view(c).SendTo(int(a[0]), data, ip4FromU64(a[2]), uint16(a[3]))
		return uint64(n), errno
	})
	g.recvFrom = mk(func(c *intravisor.CVM, a hostos.Args, dst cheri.Cap) (uint64, hostos.Errno) {
		// The sender's address leads the caller's buffer, the payload
		// follows it.
		want, errno := crossedLen(a[1], 1, sockaddrLen, stageReadSize-sockaddrLen, dst)
		if errno != hostos.OK {
			return 0, errno
		}
		buf, err := mem.CheckedSlice(dst, dst.Addr(), sockaddrLen+want)
		if err != nil {
			return 0, hostos.EFAULT
		}
		n, ip, port, errno := stackEnv.view(c).RecvFrom(int(a[0]), buf[sockaddrLen:])
		if errno != hostos.OK {
			return 0, errno
		}
		putSockaddr(buf, ip, port)
		return uint64(n), hostos.OK
	})
	g.closeG = mk(func(c *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		return 0, stackEnv.view(c).Close(int(a[0]))
	})
	g.epCreate = mk(func(c *intravisor.CVM, _ hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		return uint64(stackEnv.view(c).EpollCreate()), hostos.OK
	})
	g.epCtl = mk(func(c *intravisor.CVM, a hostos.Args, _ cheri.Cap) (uint64, hostos.Errno) {
		return 0, stackEnv.view(c).EpollCtl(int(a[0]), int(a[1]), int(a[2]), uint32(a[3]))
	})
	g.epWait = mk(func(c *intravisor.CVM, a hostos.Args, evOut cheri.Cap) (uint64, hostos.Errno) {
		maxEv, errno := crossedLen(a[1], stageEventLen, 0, stageEventsMax, evOut)
		if errno != hostos.OK {
			return 0, errno
		}
		// Events go out (fd u32, events u32) through the caller's buffer
		// capability, checked before any is collected.
		out, err := mem.CheckedSlice(evOut, evOut.Addr(), maxEv*stageEventLen)
		if err != nil {
			return 0, hostos.EFAULT
		}
		var evs [stageEventsMax]fstack.Event
		n, errno := stackEnv.view(c).EpollWait(int(a[0]), evs[:maxEv])
		if errno != hostos.OK {
			return 0, errno
		}
		for i, ev := range evs[:n] {
			binary.LittleEndian.PutUint32(out[i*stageEventLen:], uint32(ev.FD))
			binary.LittleEndian.PutUint32(out[i*stageEventLen+4:], ev.Events)
		}
		return uint64(n), hostos.OK
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Staging-area layout inside an application cVM's window.
// StageWriteSize is exported as the gated Write's per-call ceiling.
// stageChunk is how much of a write one crossing offers the stack: past
// TCP's initial window (10 segments), so the first chunk of a large
// write into an idle socket leaves as the same frames the whole would.
const (
	stageWriteOff  = 0x1000
	StageWriteSize = 256 * 1024
	stageChunk     = 16 * 1024
	stageReadOff   = stageWriteOff + StageWriteSize
	stageReadSize  = 128 * 1024
	stageAddrOff   = stageReadOff + stageReadSize // one sockaddr
	stageEventsOff = stageAddrOff + 16
	stageEventsMax = 64
	stageEventLen  = 8 // fd u32, events u32
)

// GatedAPI is the application-side view of the F-Stack API in
// Scenario 2. It satisfies fstack.API; every method is a cross-cVM call.
type GatedAPI struct {
	G   *StackGates
	App *intravisor.CVM
}

// NewGatedAPI wires an application cVM to the stack gates.
func NewGatedAPI(g *StackGates, app *intravisor.CVM) *GatedAPI {
	return &GatedAPI{G: g, App: app}
}

// stageCap derives a capability over a staging area of the app window.
func (a *GatedAPI) stageCap(off uint64, n int) (cheri.Cap, error) {
	return a.App.DeriveBuf(a.App.Base()+off, uint64(n))
}

// fdFrom is the descriptor a crossing returned: -1 with the crossing's
// errno, or with EIO for one past math.MaxInt32, since a descriptor
// crosses back as a u32 in epoll events.
func fdFrom(r uint64, errno hostos.Errno) (int, hostos.Errno) {
	if errno != hostos.OK {
		return -1, errno
	}
	if r > math.MaxInt32 {
		return -1, hostos.EIO
	}
	return int(r), hostos.OK
}

// Socket creates a descriptor.
func (a *GatedAPI) Socket(typ int) (int, hostos.Errno) {
	return fdFrom(a.G.socket.Call(a.App, hostos.Args{uint64(typ)}, cheri.NullCap))
}

// Bind attaches a local address.
func (a *GatedAPI) Bind(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno {
	_, errno := a.G.bind.Call(a.App, hostos.Args{uint64(fd), u64FromIP4(ip), uint64(port)}, cheri.NullCap)
	return errno
}

// Listen makes a socket passive.
func (a *GatedAPI) Listen(fd, backlog int) hostos.Errno {
	_, errno := a.G.listen.Call(a.App, hostos.Args{uint64(fd), uint64(backlog)}, cheri.NullCap)
	return errno
}

// Accept dequeues a connection; the peer address crosses through the
// sockaddr staging buffer.
func (a *GatedAPI) Accept(fd int) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	sa, err := a.stageCap(stageAddrOff, sockaddrLen)
	if err != nil {
		return -1, fstack.IPv4Addr{}, 0, hostos.EFAULT
	}
	nfd, errno := fdFrom(a.G.accept.Call(a.App, hostos.Args{uint64(fd)}, sa))
	if errno != hostos.OK {
		return -1, fstack.IPv4Addr{}, 0, errno
	}
	var buf [sockaddrLen]byte
	if err := a.App.Load(a.App.Base()+stageAddrOff, buf[:]); err != nil {
		return -1, fstack.IPv4Addr{}, 0, hostos.EFAULT
	}
	ip, port := getSockaddr(buf[:])
	return nfd, ip, port, hostos.OK
}

// Connect starts an active open.
func (a *GatedAPI) Connect(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno {
	_, errno := a.G.connect.Call(a.App, hostos.Args{uint64(fd), u64FromIP4(ip), uint64(port)}, cheri.NullCap)
	return errno
}

// stage stores src at offset off of the write staging area in the app
// window (it is the app's own memory) and derives the capability that
// crosses the gate, over n ≥ len(src) bytes from there: the bytes past
// src are whatever an earlier call left, and the caller guarantees the
// target loads none of them. An empty src stores nothing (a zero-length
// access is a capability fault).
func (a *GatedAPI) stage(off int, src []byte, n int) (cheri.Cap, hostos.Errno) {
	at := stageWriteOff + uint64(off)
	if len(src) > 0 {
		if err := a.App.Store(a.App.Base()+at, src); err != nil {
			return cheri.NullCap, hostos.EFAULT
		}
	}
	buf, err := a.stageCap(at, n)
	if err != nil {
		return cheri.NullCap, hostos.EFAULT
	}
	return buf, hostos.OK
}

// Write sends bytes: a staged buffer's capability crosses the gate — the
// measured ff_write path of Figs. 5 and 6. A buffer longer than
// stageChunk crosses a chunk at a time for as long as the stack takes
// every byte offered. Each crossing offers its whole chunk but stages
// only the part the stack can load now (its WriteRoom), so a poll of a
// full socket stages nothing and an accepted write copies the bytes it
// sends, not the chunk.
func (a *GatedAPI) Write(fd int, src []byte) (int, hostos.Errno) {
	if len(src) == 0 || len(src) > StageWriteSize {
		return -1, hostos.EINVAL
	}
	sent := 0
	for sent < len(src) {
		chunk := src[sent:min(sent+stageChunk, len(src))]
		room := min(a.G.env.view(a.App).WriteRoom(fd), len(chunk))
		buf, errno := a.stage(sent, chunk[:room], len(chunk))
		if errno != hostos.OK {
			return -1, errno
		}
		r, errno := a.G.write.Call(a.App, hostos.Args{uint64(fd), uint64(len(chunk))}, buf)
		if errno != hostos.OK {
			if sent > 0 {
				break // the socket filled: a short write
			}
			return int(r), errno
		}
		if r > uint64(len(chunk)) {
			return -1, hostos.EIO
		}
		sent += int(r)
		if int(r) < len(chunk) {
			break
		}
	}
	// The staging copy of the bytes the stack took.
	a.App.Book(sim.CopyNS(sent))
	return sent, hostos.OK
}

// SendTo transmits one datagram from the write staging area; the target
// loads all of it, so all of it is staged.
func (a *GatedAPI) SendTo(fd int, data []byte, ip fstack.IPv4Addr, port uint16) (int, hostos.Errno) {
	if len(data) == 0 || len(data) > StageWriteSize {
		return -1, hostos.EINVAL
	}
	buf, errno := a.stage(0, data, len(data))
	if errno != hostos.OK {
		return -1, errno
	}
	r, errno := a.G.sendTo.Call(a.App, hostos.Args{uint64(fd), uint64(len(data)), u64FromIP4(ip), uint64(port)}, buf)
	if errno != hostos.OK {
		return int(r), errno
	}
	if r > uint64(len(data)) {
		return -1, hostos.EIO
	}
	a.App.Book(sim.CopyNS(int(r)))
	return int(r), hostos.OK
}

// RecvFrom pops one datagram through the read staging area: the
// sender's address, then the payload.
func (a *GatedAPI) RecvFrom(fd int, dst []byte) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	n := min(len(dst), stageReadSize-sockaddrLen)
	buf, err := a.stageCap(stageReadOff, sockaddrLen+n)
	if err != nil {
		return -1, fstack.IPv4Addr{}, 0, hostos.EFAULT
	}
	r, errno := a.G.recvFrom.Call(a.App, hostos.Args{uint64(fd), uint64(n)}, buf)
	if errno != hostos.OK {
		return -1, fstack.IPv4Addr{}, 0, errno
	}
	if r > uint64(n) {
		return -1, fstack.IPv4Addr{}, 0, hostos.EIO
	}
	var sa [sockaddrLen]byte
	if err := a.App.Load(a.App.Base()+stageReadOff, sa[:]); err != nil {
		return -1, fstack.IPv4Addr{}, 0, hostos.EFAULT
	}
	if r > 0 {
		if err := a.App.Load(a.App.Base()+stageReadOff+sockaddrLen, dst[:r]); err != nil {
			return -1, fstack.IPv4Addr{}, 0, hostos.EFAULT
		}
	}
	ip, port := getSockaddr(sa[:])
	return int(r), ip, port, hostos.OK
}

// Read receives bytes through the read staging area.
func (a *GatedAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	n := min(len(dst), stageReadSize)
	if n == 0 {
		return 0, hostos.OK
	}
	buf, err := a.stageCap(stageReadOff, n)
	if err != nil {
		return -1, hostos.EFAULT
	}
	r, errno := a.G.read.Call(a.App, hostos.Args{uint64(fd), uint64(n)}, buf)
	if errno != hostos.OK {
		return int(r), errno
	}
	if r > uint64(n) {
		return -1, hostos.EIO
	}
	if r > 0 {
		if err := a.App.Load(a.App.Base()+stageReadOff, dst[:r]); err != nil {
			return -1, hostos.EFAULT
		}
	}
	return int(r), hostos.OK
}

// Close shuts a descriptor down.
func (a *GatedAPI) Close(fd int) hostos.Errno {
	_, errno := a.G.closeG.Call(a.App, hostos.Args{uint64(fd)}, cheri.NullCap)
	return errno
}

// EpollCreate makes an epoll descriptor; -1 when the crossing or the
// descriptor it returned fails.
func (a *GatedAPI) EpollCreate() int {
	fd, _ := fdFrom(a.G.epCreate.Call(a.App, hostos.Args{}, cheri.NullCap))
	return fd
}

// EpollCtl manipulates an interest set.
func (a *GatedAPI) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	_, errno := a.G.epCtl.Call(a.App,
		hostos.Args{uint64(epfd), uint64(op), uint64(fd), uint64(events)}, cheri.NullCap)
	return errno
}

// EpollWait collects ready events through the event staging area.
func (a *GatedAPI) EpollWait(epfd int, evs []fstack.Event) (int, hostos.Errno) {
	n := min(len(evs), stageEventsMax)
	if n == 0 {
		return 0, hostos.OK
	}
	buf, err := a.stageCap(stageEventsOff, n*stageEventLen)
	if err != nil {
		return -1, hostos.EFAULT
	}
	r, errno := a.G.epWait.Call(a.App, hostos.Args{uint64(epfd), uint64(n)}, buf)
	if errno != hostos.OK {
		return -1, errno
	}
	if r > uint64(n) {
		return -1, hostos.EIO
	}
	if r > 0 {
		var raw [stageEventsMax * stageEventLen]byte
		if err := a.App.Load(a.App.Base()+stageEventsOff, raw[:int(r)*stageEventLen]); err != nil {
			return -1, hostos.EFAULT
		}
		for i := 0; i < int(r); i++ {
			evs[i] = fstack.Event{
				FD:     int(binary.LittleEndian.Uint32(raw[i*stageEventLen:])),
				Events: binary.LittleEndian.Uint32(raw[i*stageEventLen+4:]),
			}
		}
	}
	return int(r), hostos.OK
}
