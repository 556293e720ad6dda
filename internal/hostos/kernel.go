package hostos

import (
	"time"

	"repro/internal/cheri"
)

// SysNo is a syscall number.
type SysNo int

// Syscall numbers (FreeBSD numbering where one exists).
const (
	// SysClockGettime returns the time of the clock in a0; r0=sec,
	// r1=nsec.
	SysClockGettime SysNo = 232
	// SysUmtxOp performs the umtx operation a1 on address a0 with value
	// a2 and timeout a3 (ns; 0 = infinite). r0 = woken count for wake.
	SysUmtxOp SysNo = 454
	// SysMmap reserves a0 bytes of page memory; r0 = base address.
	SysMmap SysNo = 477
	// SysMunmap releases the reservation [a0, a0+a1).
	SysMunmap SysNo = 73
)

// Args carries up to six syscall arguments.
type Args [6]uint64

// Kernel is the host OS instance: one per simulated machine.
type Kernel struct {
	Mem   *cheri.TMem
	Clk   Clock
	Umtx  *Umtx
	Pages *PageAlloc
	PCI   *PCI
}

// NewKernel boots a host kernel over memSize bytes of tagged memory. The
// first page is reserved (null page); the rest is the mmap arena.
func NewKernel(memSize uint64) (*Kernel, error) {
	mem := cheri.NewTMem(memSize)
	pages, err := NewPageAlloc(PageSize, mem.Size()-PageSize)
	if err != nil {
		return nil, err
	}
	return &Kernel{
		Mem:   mem,
		Clk:   NewRealClock(),
		Umtx:  NewUmtx(mem),
		Pages: pages,
		PCI:   NewPCI(),
	}, nil
}

// Syscall dispatches a host syscall. It is the single entry point the
// Intravisor proxies into (and that Baseline code calls directly).
func (k *Kernel) Syscall(num SysNo, a Args) (r0, r1 uint64, errno Errno) {
	switch num {
	case SysClockGettime:
		switch a[0] {
		case ClockMonotonic, ClockMonotonicRaw:
			ns := k.Clk.Now()
			return uint64(ns / 1e9), uint64(ns % 1e9), OK
		default:
			return 0, 0, EINVAL
		}
	case SysUmtxOp:
		switch a[1] {
		case UmtxOpWaitUint:
			return 0, 0, k.Umtx.WaitUint(a[0], uint32(a[2]), time.Duration(a[3]))
		case UmtxOpWake:
			n := k.Umtx.Wake(a[0], int(a[2]))
			return uint64(n), 0, OK
		default:
			return 0, 0, EINVAL
		}
	case SysMmap:
		addr, errno := k.Pages.Alloc(a[0])
		return addr, 0, errno
	case SysMunmap:
		return 0, 0, k.Pages.Free(a[0], a[1])
	default:
		return 0, 0, ENOSYS
	}
}
