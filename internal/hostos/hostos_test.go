package hostos

import (
	"testing"

	"repro/internal/cheri"
)

func TestClockMonotonic(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("clock went backwards: %d then %d", a, b)
	}
}

// fixedClock is a clock that reads what the test sets.
type fixedClock int64

func (c *fixedClock) Now() int64 { return int64(*c) }

func TestKernelClockGettime(t *testing.T) {
	clk := fixedClock(1_500_000_123)
	k, err := NewKernel(&clk, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, ns, errno := k.Syscall(SysClockGettime, Args{ClockMonotonicRaw})
	if errno != OK || s != 1 || ns != 500_000_123 {
		t.Fatalf("clock_gettime = %d s %d ns %v, want 1 s 500000123 ns OK", s, ns, errno)
	}
	clk += 2_000_000_000
	if s, ns, errno := k.Syscall(SysClockGettime, Args{ClockMonotonic}); errno != OK || s != 3 || ns != 500_000_123 {
		t.Fatalf("clock_gettime after 2 s = %d s %d ns %v, want the kernel's clock", s, ns, errno)
	}
	if _, _, errno := k.Syscall(SysClockGettime, Args{999}); errno != EINVAL {
		t.Fatalf("bad clock id: got %v, want EINVAL", errno)
	}
}

func TestKernelUnknownSyscall(t *testing.T) {
	k, _ := NewKernel(new(fixedClock), 1<<20)
	if _, _, errno := k.Syscall(SysNo(123456), Args{}); errno != ENOSYS {
		t.Fatalf("unknown syscall: got %v, want ENOSYS", errno)
	}
}

func TestPageAllocBasic(t *testing.T) {
	p, err := NewPageAlloc(cheri.NewTMem(17*PageSize), PageSize, 16*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	a, errno := p.Alloc(100) // rounds to one page
	if errno != OK {
		t.Fatal(errno)
	}
	if a%PageSize != 0 {
		t.Fatalf("unaligned allocation %#x", a)
	}
	b, errno := p.Alloc(PageSize * 2)
	if errno != OK {
		t.Fatal(errno)
	}
	if b == a {
		t.Fatal("overlapping allocations")
	}
	if errno := p.Free(a, PageSize); errno != OK {
		t.Fatal(errno)
	}
	if errno := p.Free(a, PageSize); errno != EINVAL {
		t.Fatalf("double free: got %v, want EINVAL", errno)
	}
	if errno := p.Free(b, 2*PageSize); errno != OK {
		t.Fatal(errno)
	}
	if len(p.free) != 1 || p.free[0] != (span{addr: p.base, size: 16 * PageSize}) {
		t.Fatalf("free list after full release = %v, want one span of %d bytes", p.free, 16*PageSize)
	}
}

func TestPageAllocExhaustion(t *testing.T) {
	p, err := NewPageAlloc(cheri.NewTMem(5*PageSize), PageSize, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, errno := p.Alloc(5 * PageSize); errno != ENOMEM {
		t.Fatalf("oversized alloc: got %v, want ENOMEM", errno)
	}
	for i := 0; i < 4; i++ {
		if _, errno := p.Alloc(PageSize); errno != OK {
			t.Fatalf("alloc %d: %v", i, errno)
		}
	}
	if _, errno := p.Alloc(PageSize); errno != ENOMEM {
		t.Fatalf("exhausted alloc: got %v, want ENOMEM", errno)
	}
}

func TestPageAllocCoalesce(t *testing.T) {
	p, _ := NewPageAlloc(cheri.NewTMem(9*PageSize), PageSize, 8*PageSize)
	a, _ := p.Alloc(2 * PageSize)
	b, _ := p.Alloc(2 * PageSize)
	c, _ := p.Alloc(2 * PageSize)
	_ = c
	// Free in an order that requires coalescing a..b.
	if errno := p.Free(b, 2*PageSize); errno != OK {
		t.Fatal(errno)
	}
	if errno := p.Free(a, 2*PageSize); errno != OK {
		t.Fatal(errno)
	}
	// A 4-page allocation must now fit in the coalesced hole.
	d, errno := p.Alloc(4 * PageSize)
	if errno != OK {
		t.Fatalf("coalesced alloc: %v", errno)
	}
	if d != a {
		t.Fatalf("coalesced alloc at %#x, want %#x", d, a)
	}
}

type fakeDev struct{ bdf string }

func (d *fakeDev) BDF() string               { return d.bdf }
func (d *fakeDev) VendorID() uint16          { return 0x8086 }
func (d *fakeDev) DeviceID() uint16          { return 0x10C9 }
func (d *fakeDev) RegRead32(uint64) uint32   { return 0 }
func (d *fakeDev) RegWrite32(uint64, uint32) {}

func TestPCIRegisterUnbindClaim(t *testing.T) {
	p := NewPCI()
	dev := &fakeDev{bdf: "0000:03:00.0"}
	if err := p.Register(dev); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(dev); err == nil {
		t.Fatal("duplicate register must fail")
	}
	// Claiming while kernel-bound fails.
	if _, errno := p.Claim(dev.BDF()); errno != EBUSY {
		t.Fatalf("claim while bound: got %v, want EBUSY", errno)
	}
	if errno := p.Unbind(dev.BDF()); errno != OK {
		t.Fatal(errno)
	}
	if errno := p.Unbind(dev.BDF()); errno != EBUSY {
		t.Fatalf("double unbind: got %v, want EBUSY", errno)
	}
	got, errno := p.Claim(dev.BDF())
	if errno != OK || got != dev {
		t.Fatalf("claim: %v, %v", got, errno)
	}
	if errno := p.Unbind("nope"); errno != ENOENT {
		t.Fatalf("unbind unknown: got %v, want ENOENT", errno)
	}
	if len(p.slots) != 1 {
		t.Fatalf("devices = %v", p.slots)
	}
}

func TestMmapSyscall(t *testing.T) {
	k, _ := NewKernel(new(fixedClock), 1<<20)
	addr, _, errno := k.Syscall(SysMmap, Args{3 * PageSize})
	if errno != OK {
		t.Fatal(errno)
	}
	if addr%PageSize != 0 || addr == 0 {
		t.Fatalf("mmap addr %#x", addr)
	}
	if _, _, errno := k.Syscall(SysMunmap, Args{addr, 3 * PageSize}); errno != OK {
		t.Fatal(errno)
	}
}

// TestPageAllocHugepageGrid: on a kernel whose memory is a short lowest
// page (null page and code window) plus whole hugepages, a reservation
// of a hugepage or more starts on a boundary of physical memory's grid
// and takes only its pages; a smaller one stays first fit, in the gap
// below a boundary too; a free returns exactly the pages it names.
func TestPageAllocHugepageGrid(t *testing.T) {
	const huge, low = cheri.HugePageSize, 0x101000
	k, err := NewKernel(new(fixedClock), low+3*huge)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(n uint64) uint64 {
		t.Helper()
		addr, errno := k.Pages.Alloc(n)
		if errno != OK {
			t.Fatalf("Alloc(%#x): %v", n, errno)
		}
		return addr
	}
	if a := alloc(PageSize); a != PageSize {
		t.Fatalf("first page at %#x, want %#x", a, PageSize)
	}
	big := alloc(huge + PageSize)
	if big != low || k.Mem.PageEnd(big) != big+huge {
		t.Fatalf("a reservation of a hugepage and a page starts at %#x (page end %#x), want the boundary %#x", big, k.Mem.PageEnd(big), low)
	}
	if a := alloc(3 * PageSize); a != 2*PageSize {
		t.Fatalf("a small reservation after it at %#x, want first fit at %#x", a, 2*PageSize)
	}
	if a := alloc(huge); a != low+2*huge {
		t.Fatalf("the next hugepage at %#x, want the next boundary %#x", a, low+2*huge)
	}
	if _, errno := k.Pages.Alloc(huge); errno != ENOMEM {
		t.Fatalf("a hugepage past the top: %v, want ENOMEM", errno)
	}
	if errno := k.Pages.Free(big+PageSize, huge); errno != OK {
		t.Fatal(errno)
	}
	if errno := k.Pages.Free(big+huge+PageSize, PageSize); errno != EINVAL {
		t.Fatalf("a free of the page above what was freed: %v, want EINVAL (it was never allocated)", errno)
	}
	if errno := k.Pages.Free(big, PageSize); errno != OK {
		t.Fatal(errno)
	}
	if a := alloc(huge); a != big {
		t.Fatalf("a hugepage after the free at %#x, want %#x", a, big)
	}
}
