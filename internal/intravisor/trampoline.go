package intravisor

import (
	"slices"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// MuslSysNo is a musl-libc (Linux aarch64) syscall number. cVMs link
// against a modified musl whose svc instructions were replaced by
// trampoline calls carrying these numbers (§III-B).
type MuslSysNo int

// The musl syscalls the proxy serves; any other number (futex(2), 98,
// among them) is ENOSYS.
const (
	// MuslClockGettime is Linux clock_gettime(2).
	MuslClockGettime MuslSysNo = 113
	// MuslMmap is Linux mmap(2).
	MuslMmap MuslSysNo = 222
	// MuslMunmap is Linux munmap(2).
	MuslMunmap MuslSysNo = 215
)

// Linux clock ids as used by musl callers.
const (
	LinuxClockMonotonic    = 1
	LinuxClockMonotonicRaw = 4
)

// Syscall is the musl trampoline: the only road from a cVM to the host
// kernel. It performs the domain crossing — the sealed-pair CInvoke into
// the Intravisor, proxy translation, host syscall, return — and books
// the crossing's modelled cost on the calling cVM as it counts it.
func (c *CVM) Syscall(num MuslSysNo, a hostos.Args) (r0, r1 uint64, errno hostos.Errno) {
	if err := cheri.CInvoke(c.entry); err != nil {
		// A broken entry pair is a capability fault against the cVM.
		if f, ok := faultOf(err); ok {
			c.Trap(f)
		}
		return 0, 0, hostos.EFAULT
	}
	r0, r1, errno = c.iv.proxy(c, num, a)
	c.iv.Crossings.Add(1)
	c.Book(sim.TrampolineNS)
	return r0, r1, errno
}

// proxy translates a musl syscall into its CheriBSD equivalent and
// performs it. An address the cVM supplies reaches the kernel only inside
// what the Intravisor handed that cVM: the Intravisor "correctly handles
// the capabilities and mediates the access to the OS" (§II-B).
func (iv *Intravisor) proxy(c *CVM, num MuslSysNo, a hostos.Args) (r0, r1 uint64, errno hostos.Errno) {
	switch num {
	case MuslClockGettime:
		var clk uint64
		switch a[0] {
		case LinuxClockMonotonic:
			clk = hostos.ClockMonotonic
		case LinuxClockMonotonicRaw:
			clk = hostos.ClockMonotonicRaw
		default:
			return 0, 0, hostos.EINVAL
		}
		return iv.K.Syscall(hostos.SysClockGettime, hostos.Args{clk})

	case MuslMmap:
		// Length only; the proxy allocates inside the host arena and
		// records the span. The region is NOT added to the cVM's DDC
		// automatically — the Intravisor distributes capabilities
		// explicitly.
		addr, _, errno := iv.K.Syscall(hostos.SysMmap, hostos.Args{a[0]})
		if errno == hostos.OK {
			c.mapped = append(c.mapped, span{addr, pageUp(a[0])})
		}
		return addr, 0, errno

	case MuslMunmap:
		return 0, 0, c.unmap(a[0], pageUp(a[1]))

	default:
		return 0, 0, hostos.ENOSYS
	}
}

// pageUp rounds n up to whole pages, as mmap(2) and munmap(2) do.
func pageUp(n uint64) uint64 { return (n + hostos.PageSize - 1) &^ (hostos.PageSize - 1) }

// unmap releases [addr, addr+n) if it lies inside one span the proxy's
// mmap handed c, and keeps what is left of that span either side. Any
// other range is EINVAL and never reaches the kernel, whose allocator
// frees whatever is allocated: another cVM's window, the code window.
func (c *CVM) unmap(addr, n uint64) hostos.Errno {
	for i, s := range c.mapped {
		off := addr - s.base
		if addr < s.base || off >= s.size || n == 0 || n > s.size-off {
			continue
		}
		if _, _, errno := c.iv.K.Syscall(hostos.SysMunmap, hostos.Args{addr, n}); errno != hostos.OK {
			return errno
		}
		c.mapped = slices.Delete(c.mapped, i, i+1)
		if off > 0 {
			c.mapped = append(c.mapped, span{s.base, off})
		}
		if off+n < s.size {
			c.mapped = append(c.mapped, span{addr + n, s.size - off - n})
		}
		return hostos.OK
	}
	return hostos.EINVAL
}

// NowNS reads CLOCK_MONOTONIC_RAW through the trampoline, the way the
// paper's measurement probes do from inside a cVM ("we can't directly
// access the timers of the system", §IV). The reading is the calling
// thread's: no earlier than the work it has booked, this crossing
// included.
func (c *CVM) NowNS() int64 {
	s, ns, errno := c.Syscall(MuslClockGettime, hostos.Args{LinuxClockMonotonicRaw})
	if errno != hostos.OK {
		return -1
	}
	return c.Core.At(int64(s)*1e9 + int64(ns))
}
