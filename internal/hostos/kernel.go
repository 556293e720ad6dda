package hostos

import "repro/internal/cheri"

// SysNo is a syscall number.
type SysNo int

// Syscall numbers (FreeBSD numbering where one exists).
const (
	// SysClockGettime returns the time of the clock in a0; r0=sec,
	// r1=nsec.
	SysClockGettime SysNo = 232
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
	Pages *PageAlloc
	PCI   *PCI
}

// NewKernel boots a host kernel on clk over memSize bytes of
// memory. The first page is reserved (null page); the rest is the mmap
// arena.
func NewKernel(clk Clock, memSize uint64) (*Kernel, error) {
	mem := cheri.NewTMem(memSize)
	pages, err := NewPageAlloc(PageSize, mem.Size()-PageSize)
	if err != nil {
		return nil, err
	}
	return &Kernel{
		Mem:   mem,
		Clk:   clk,
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
	case SysMmap:
		addr, errno := k.Pages.Alloc(a[0])
		return addr, 0, errno
	case SysMunmap:
		return 0, 0, k.Pages.Free(a[0], a[1])
	default:
		return 0, 0, ENOSYS
	}
}
