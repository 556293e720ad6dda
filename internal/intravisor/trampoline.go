package intravisor

import (
	"time"

	"repro/internal/hostos"
	"repro/internal/sim"
)

// MuslSysNo is a musl-libc (Linux aarch64) syscall number. cVMs link
// against a modified musl whose svc instructions were replaced by
// trampoline calls carrying these numbers (§III-B).
type MuslSysNo int

// The musl syscalls the compartmentalized stack issues.
const (
	// MuslClockGettime is Linux clock_gettime(2).
	MuslClockGettime MuslSysNo = 113
	// MuslFutex is Linux futex(2); the proxy translates it to umtx.
	MuslFutex MuslSysNo = 98
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

// Linux futex ops (FUTEX_PRIVATE_FLAG masked off by the proxy).
const (
	LinuxFutexWait = 0
	LinuxFutexWake = 1

	linuxFutexPrivateFlag = 128
)

// Syscall is the musl trampoline: the only road from a cVM to the host
// kernel. It performs the full domain crossing — frame save, volatile
// register clearing, sealed-pair CInvoke into the Intravisor, proxy
// translation, host syscall, return crossing — and books the crossing's
// modelled cost on the calling cVM as it counts it.
func (c *CVM) Syscall(num MuslSysNo, a hostos.Args) (r0, r1 uint64, errno hostos.Errno) {
	// Each cVM thread has its own register file (cVMs run as threads of
	// the Intravisor); the trampoline operates on this thread's context,
	// seeded from the cVM's template.
	ctx := c.ctx
	// Trampoline entry: preserve the caller's register state and make
	// sure no live capability leaks into the Intravisor's world.
	frame := ctx.Save()
	ctx.ClearVolatile()
	if err := ctx.CInvoke(c.entry); err != nil {
		// A broken entry pair is a capability fault against the cVM.
		if f, ok := faultOf(err); ok {
			c.Trap(f)
		}
		ctx.Restore(frame)
		return 0, 0, hostos.EFAULT
	}
	r0, r1, errno = c.iv.proxy(c, num, a)
	// Return crossing: scrub and restore.
	ctx.ClearVolatile()
	ctx.Restore(frame)
	c.iv.Crossings.Add(1)
	c.Book(sim.TrampolineNS)
	return r0, r1, errno
}

// proxy translates a musl syscall into its CheriBSD equivalent and
// performs it. Addresses supplied by the cVM are validated against the
// cVM's DDC before they reach the kernel: the Intravisor "correctly
// handles the capabilities and mediates the access to the OS" (§II-B).
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

	case MuslFutex:
		addr := a[0]
		op := a[1] &^ linuxFutexPrivateFlag
		val := a[2]
		timeout := a[3]
		// The futex word must lie inside the calling cVM's window.
		if err := c.ddc.CheckLoad(addr, 4); err != nil {
			return 0, 0, hostos.EFAULT
		}
		switch op {
		case LinuxFutexWait:
			return iv.K.Syscall(hostos.SysUmtxOp,
				hostos.Args{addr, hostos.UmtxOpWaitUint, val, timeout})
		case LinuxFutexWake:
			return iv.K.Syscall(hostos.SysUmtxOp,
				hostos.Args{addr, hostos.UmtxOpWake, val})
		default:
			return 0, 0, hostos.EINVAL
		}

	case MuslMmap:
		// Length only; the proxy allocates inside the host arena. The
		// region is NOT added to the cVM's DDC automatically — the
		// Intravisor distributes capabilities explicitly.
		return iv.K.Syscall(hostos.SysMmap, hostos.Args{a[0]})

	case MuslMunmap:
		return iv.K.Syscall(hostos.SysMunmap, hostos.Args{a[0], a[1]})

	default:
		return 0, 0, hostos.ENOSYS
	}
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
	return c.Core.At(int64(s)*int64(time.Second) + int64(ns))
}

// FutexWait parks the caller while the word at addr equals val.
func (c *CVM) FutexWait(addr uint64, val uint32) hostos.Errno {
	_, _, errno := c.Syscall(MuslFutex, hostos.Args{addr, LinuxFutexWait, uint64(val), 0})
	return errno
}
