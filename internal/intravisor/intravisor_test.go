package intravisor

import (
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// freeBytes is what p can still hand out, probed a page at a time
// through Alloc and given back through Free.
func freeBytes(t testing.TB, p *hostos.PageAlloc) uint64 {
	t.Helper()
	var pages []uint64
	for {
		addr, errno := p.Alloc(hostos.PageSize)
		if errno != hostos.OK {
			break
		}
		pages = append(pages, addr)
	}
	for _, addr := range pages {
		if errno := p.Free(addr, hostos.PageSize); errno != hostos.OK {
			t.Fatalf("free of probed page %#x: %v", addr, errno)
		}
	}
	return uint64(len(pages)) * hostos.PageSize
}

func newIV(t testing.TB) *Intravisor {
	t.Helper()
	k, err := hostos.NewKernel(sim.NewVClock(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return iv
}

func TestCreateCVMWindows(t *testing.T) {
	iv := newIV(t)
	a, err := iv.CreateCVM("cvm1", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := iv.CreateCVM("cvm2", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iv.CreateCVM("cvm1", 1<<20); err == nil {
		t.Fatal("duplicate cVM name must fail")
	}
	// Windows must be disjoint.
	if a.Base() < b.Base()+b.Size() && b.Base() < a.Base()+a.Size() {
		t.Fatalf("overlapping windows: [%#x,+%#x) and [%#x,+%#x)",
			a.Base(), a.Size(), b.Base(), b.Size())
	}
	// DDC confined to the window, without privileged permissions.
	if a.DDC().Base() != a.Base() || a.DDC().Len() != a.Size() {
		t.Fatalf("DDC %v does not match window", a.DDC())
	}
	for _, p := range []cheri.Perm{cheri.PermSystem, cheri.PermSeal, cheri.PermUnseal, cheri.PermExecute} {
		if a.DDC().Perms().Has(p) {
			t.Fatalf("cVM DDC carries privileged perm %v", p)
		}
	}
	if len(iv.cvms) != 2 {
		t.Fatalf("%d cVMs registered", len(iv.cvms))
	}
}

func TestCVMIsolation(t *testing.T) {
	iv := newIV(t)
	a, _ := iv.CreateCVM("a", 1<<20)
	b, _ := iv.CreateCVM("b", 1<<20)

	// a writes inside its own window: fine.
	if err := a.Store(a.Base()+64, []byte("mine")); err != nil {
		t.Fatalf("own-window store: %v", err)
	}
	// a reaches into b's window: capability out-of-bounds, a traps.
	err := a.Store(b.Base()+64, []byte("attack"))
	if f, ok := err.(*cheri.Fault); !ok || f.Kind != cheri.FaultBounds {
		t.Fatalf("cross-window store: got %v, want bounds fault", err)
	}
	if !a.Trapped() {
		t.Fatal("the attacker is running, want trapped")
	}
	if a.trap == nil || a.trap.Kind != cheri.FaultBounds {
		t.Fatalf("trap fault = %v", a.trap)
	}
	// The victim is unaffected (paper Fig. 3: other cVMs keep running).
	if b.Trapped() {
		t.Fatal("victim cVM must be unaffected")
	}
	got := make([]byte, 6)
	if err := b.Load(b.Base()+64, got); err != nil {
		t.Fatalf("victim load: %v", err)
	}
	if string(got) == "attack" {
		t.Fatal("attacker's bytes landed in the victim window")
	}
}

func TestCVMRestart(t *testing.T) {
	iv := newIV(t)
	c, _ := iv.CreateCVM("c", 1<<20)
	if err := c.Restart(); err == nil {
		t.Fatal("Restart of a running cVM must fail")
	}
	// An out-of-window load traps the compartment.
	if err := c.Load(c.Base()+c.Size(), make([]byte, 8)); err == nil {
		t.Fatal("out-of-window load must fault")
	}
	if !c.Trapped() || c.trap == nil {
		t.Fatalf("after fault: trapped=%v fault=%v", c.Trapped(), c.trap)
	}
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if c.Trapped() || c.trap != nil {
		t.Fatalf("after restart: fault=%v", c.trap)
	}
	// Same window, working DDC: in-window accesses go through again.
	if c.DDC().Base() != c.Base() || c.DDC().Len() != c.Size() || !c.DDC().Tag() {
		t.Fatalf("restarted DDC %v does not cover window", c.DDC())
	}
	if err := c.Store(c.Base(), []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("in-window store after restart: %v", err)
	}
}

func TestTrampolineClockGettime(t *testing.T) {
	iv := newIV(t)
	c, _ := iv.CreateCVM("c", 1<<20)
	t0 := c.NowNS()
	if t0 < 0 {
		t.Fatal("NowNS failed")
	}
	iv.K.Clk.(*sim.VClock).Advance(1_000_000)
	t1 := c.NowNS()
	if t1 < t0+1_000_000 {
		t.Fatalf("cVM clock did not follow the kernel's: %d -> %d", t0, t1)
	}
	if iv.Crossings.Load() < 2 {
		t.Fatalf("crossings = %d, want >= 2", iv.Crossings.Load())
	}
	// Unknown clock id propagates EINVAL.
	if _, _, errno := c.Syscall(MuslClockGettime, hostos.Args{77}); errno != hostos.EINVAL {
		t.Fatalf("bad clock: got %v, want EINVAL", errno)
	}
}

func TestTrampolineUnknownSyscall(t *testing.T) {
	iv := newIV(t)
	c, _ := iv.CreateCVM("c", 1<<20)
	if _, _, errno := c.Syscall(MuslSysNo(9999), hostos.Args{}); errno != hostos.ENOSYS {
		t.Fatalf("unknown musl syscall: got %v, want ENOSYS", errno)
	}
}

func TestGateCrossCompartmentCall(t *testing.T) {
	iv := newIV(t)
	stack, _ := iv.CreateCVM("stack", 1<<20)
	app, _ := iv.CreateCVM("app", 1<<20)

	var gotLen uint64
	gate, err := iv.NewGate(stack, func(caller *CVM, args hostos.Args, buf cheri.Cap) (uint64, hostos.Errno) {
		// The stack compartment reads the app's buffer through the
		// passed capability.
		data := make([]byte, args[1])
		if err := iv.K.Mem.Load(buf, buf.Addr(), data); err != nil {
			return 0, hostos.EFAULT
		}
		gotLen = uint64(len(data))
		return uint64(len(data)), hostos.OK
	})
	if err != nil {
		t.Fatal(err)
	}

	// The app derives a buffer capability over its own data.
	msg := []byte("telemetry")
	if err := app.Store(app.Base()+128, msg); err != nil {
		t.Fatal(err)
	}
	buf, err := app.DeriveBuf(app.Base()+128, uint64(len(msg)))
	if err != nil {
		t.Fatal(err)
	}
	n, errno := gate.Call(app, hostos.Args{3, uint64(len(msg))}, buf)
	if errno != hostos.OK || n != uint64(len(msg)) {
		t.Fatalf("gate call: n=%d errno=%v", n, errno)
	}
	if gotLen != uint64(len(msg)) {
		t.Fatalf("gate target saw %d bytes", gotLen)
	}
	if gate.owner != stack {
		t.Fatal("gate owner wrong")
	}
}

func TestGateRejectsForgedCapability(t *testing.T) {
	iv := newIV(t)
	stack, _ := iv.CreateCVM("stack", 1<<20)
	app, _ := iv.CreateCVM("app", 1<<20)
	victim, _ := iv.CreateCVM("victim", 1<<20)

	gate, err := iv.NewGate(stack, func(caller *CVM, args hostos.Args, buf cheri.Cap) (uint64, hostos.Errno) {
		return 1, hostos.OK
	})
	if err != nil {
		t.Fatal(err)
	}
	// A "forged" capability over the victim's window: the gate must
	// refuse it, because it is not derivable from the app's DDC.
	forged := cheri.NewRoot(victim.Base(), 64, cheri.PermData)
	if _, errno := gate.Call(app, hostos.Args{}, forged); errno != hostos.EFAULT {
		t.Fatalf("forged capability: got %v, want EFAULT", errno)
	}
	if !app.Trapped() {
		t.Fatal("the caller is running, want trapped")
	}
}

// TestBrokenEntryPairTrapsTheCaller: a gate call and a trampoline
// syscall through an entry pair whose halves disagree on their object
// type, or lost a tag, trap the caller with the CInvoke fault and return
// EFAULT; neither the gate target nor the syscall proxy runs, and no
// crossing is counted or booked.
func TestBrokenEntryPairTrapsTheCaller(t *testing.T) {
	for _, row := range []struct {
		name  string
		fault cheri.FaultKind
		// brk breaks p; other is a well-formed pair of another otype.
		brk func(p, other cheri.EntryPair) cheri.EntryPair
	}{
		{"mismatched otypes", cheri.FaultOType, func(p, other cheri.EntryPair) cheri.EntryPair { p.Data = other.Data; return p }},
		{"untagged code", cheri.FaultTag, func(p, _ cheri.EntryPair) cheri.EntryPair { p.Code = cheri.NullCap.SetAddr(p.Code.Addr()); return p }},
		{"untagged data", cheri.FaultTag, func(p, _ cheri.EntryPair) cheri.EntryPair { p.Data = cheri.NullCap.SetAddr(p.Data.Addr()); return p }},
	} {
		iv := newIV(t)
		now := iv.K.Clk.Now()
		stack, _ := iv.CreateCVM("stack", 1<<20)
		app, _ := iv.CreateCVM("app", 1<<20)
		ran := false
		g, err := iv.NewGate(stack, func(*CVM, hostos.Args, cheri.Cap) (uint64, hostos.Errno) {
			ran = true
			return 0, hostos.OK
		})
		if err != nil {
			t.Fatal(err)
		}
		g.pair = row.brk(g.pair, stack.entry)
		app.entry = row.brk(app.entry, stack.entry)
		buf, _ := app.DeriveBuf(app.Base(), 64)
		free := freeBytes(t, iv.K.Pages)
		for _, cross := range []struct {
			name string
			call func() hostos.Errno
		}{
			{"gate call", func() hostos.Errno { _, errno := g.Call(app, hostos.Args{}, buf); return errno }},
			{"trampoline", func() hostos.Errno { _, _, errno := app.Syscall(MuslMmap, hostos.Args{hostos.PageSize}); return errno }},
		} {
			if errno := cross.call(); errno != hostos.EFAULT {
				t.Fatalf("%s, %s: %v, want EFAULT", row.name, cross.name, errno)
			}
			if f := app.trap; f == nil || f.Kind != row.fault {
				t.Fatalf("%s, %s: the caller's trap is %v, want a %v fault", row.name, cross.name, f, row.fault)
			}
			if ran || freeBytes(t, iv.K.Pages) != free || len(app.mapped) != 0 {
				t.Fatalf("%s, %s: the crossing ran its target (gate target ran: %v, pages taken: %d)",
					row.name, cross.name, ran, free-freeBytes(t, iv.K.Pages))
			}
			if n := iv.Crossings.Load(); n != 0 {
				t.Fatalf("%s, %s: %d crossings counted, want none", row.name, cross.name, n)
			}
			if app.Core.At(now) != now || stack.Core.At(now) != now {
				t.Fatalf("%s, %s: the refused crossing booked time", row.name, cross.name)
			}
			if err := app.Restart(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGateNullBufferAllowed(t *testing.T) {
	iv := newIV(t)
	stack, _ := iv.CreateCVM("stack", 1<<20)
	app, _ := iv.CreateCVM("app", 1<<20)
	gate, err := iv.NewGate(stack, func(caller *CVM, args hostos.Args, buf cheri.Cap) (uint64, hostos.Errno) {
		if buf.Tag() {
			return 0, hostos.EINVAL
		}
		return args[0] + 1, hostos.OK
	})
	if err != nil {
		t.Fatal(err)
	}
	r, errno := gate.Call(app, hostos.Args{41}, cheri.NullCap)
	if errno != hostos.OK || r != 42 {
		t.Fatalf("null-buffer call: r=%d errno=%v", r, errno)
	}
}

func TestDeriveBufOutOfWindowTraps(t *testing.T) {
	iv := newIV(t)
	app, _ := iv.CreateCVM("app", 1<<20)
	if _, err := app.DeriveBuf(app.Base()+app.Size(), 16); err == nil {
		t.Fatal("deriving beyond the window must fail")
	}
	if !app.Trapped() {
		t.Fatal("the cVM is running, want trapped")
	}
}

func TestMmapThroughProxy(t *testing.T) {
	iv := newIV(t)
	c, _ := iv.CreateCVM("c", 1<<20)
	addr, _, errno := c.Syscall(MuslMmap, hostos.Args{hostos.PageSize * 2})
	if errno != hostos.OK || addr == 0 {
		t.Fatalf("mmap: addr=%#x errno=%v", addr, errno)
	}
	if _, _, errno := c.Syscall(MuslMunmap, hostos.Args{addr, hostos.PageSize * 2}); errno != hostos.OK {
		t.Fatalf("munmap: %v", errno)
	}
}

// TestHugeMunmapLeavesItsNeighbour: a cVM's munmap of a hugepage or
// more from inside its mapping frees exactly the pages it names, so the
// window just above the mapping (another cVM's) stays allocated, and a
// mapping that is not whole hugepages can be unmapped to its last page.
func TestHugeMunmapLeavesItsNeighbour(t *testing.T) {
	const huge, pg = cheri.HugePageSize, hostos.PageSize
	iv := newIV(t)
	a, _ := iv.CreateCVM("a", 1<<20)
	m, _, errno := a.Syscall(MuslMmap, hostos.Args{2 * huge})
	if errno != hostos.OK {
		t.Fatalf("mmap: %v", errno)
	}
	b, err := iv.CreateCVM("b", huge)
	if err != nil {
		t.Fatal(err)
	}
	if b.Base() != m+2*huge {
		t.Fatalf("b's window at %#x, want right above the mapping at %#x", b.Base(), m+2*huge)
	}
	free := freeBytes(t, iv.K.Pages)
	if _, _, errno := a.Syscall(MuslMunmap, hostos.Args{m + pg, huge + pg}); errno != hostos.OK {
		t.Fatalf("munmap from the mapping's second page: %v", errno)
	}
	if got := freeBytes(t, iv.K.Pages) - free; got != huge+pg {
		t.Fatalf("munmap of %d bytes freed %d", huge+pg, got)
	}
	for _, r := range [][2]uint64{{m, pg}, {m + huge + 2*pg, huge - 2*pg}} {
		if _, _, errno := a.Syscall(MuslMunmap, hostos.Args{r[0], r[1]}); errno != hostos.OK {
			t.Fatalf("munmap of the rest [%#x,+%#x): %v", r[0], r[1], errno)
		}
	}
	if got := freeBytes(t, iv.K.Pages) - free; got != 2*huge {
		t.Fatalf("unmapping the whole mapping freed %d bytes, want %d", got, 2*huge)
	}
	c, err := iv.CreateCVM("c", 3*huge)
	if err == nil && c.Base() < b.Base()+b.Size() && b.Base() < c.Base()+c.Size() {
		t.Fatalf("c's window [%#x,+%#x) overlaps b's [%#x,+%#x)", c.Base(), c.Size(), b.Base(), b.Size())
	}

	odd := uint64(huge + huge/2)
	free = freeBytes(t, iv.K.Pages)
	m, _, errno = a.Syscall(MuslMmap, hostos.Args{odd})
	if errno != hostos.OK {
		t.Fatalf("mmap of %#x: %v", odd, errno)
	}
	if _, _, errno := a.Syscall(MuslMunmap, hostos.Args{m, odd}); errno != hostos.OK {
		t.Fatalf("munmap of the whole %#x: %v", odd, errno)
	}
	if got := freeBytes(t, iv.K.Pages); got != free {
		t.Fatalf("mmap and munmap of %#x: free bytes %d -> %d", odd, free, got)
	}
}

// TestMunmapCannotFreeAnotherWindow: a cVM that unmaps another cVM's
// window must neither free it nor let the next cVM be placed over it —
// which would leave two live DDCs covering the same memory.
func TestMunmapCannotFreeAnotherWindow(t *testing.T) {
	iv := newIV(t)
	a, _ := iv.CreateCVM("a", 1<<20)
	b, _ := iv.CreateCVM("b", 1<<20)
	free := freeBytes(t, iv.K.Pages)
	if _, _, errno := a.Syscall(MuslMunmap, hostos.Args{b.Base(), b.Size()}); errno == hostos.OK {
		t.Fatalf("a unmapped b's window [%#x,+%#x)", b.Base(), b.Size())
	}
	if got := freeBytes(t, iv.K.Pages); got != free {
		t.Fatalf("free bytes %d -> %d after a refused munmap", free, got)
	}
	c, err := iv.CreateCVM("c", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if c.Base() < b.Base()+b.Size() && b.Base() < c.Base()+c.Size() {
		t.Fatalf("c's window [%#x,+%#x) overlaps b's [%#x,+%#x)", c.Base(), c.Size(), b.Base(), b.Size())
	}
}

// TestProxiedSyscallsStayInTheirWindow walks every musl syscall the proxy
// serves, and futex, which it does not: no call reaches another cVM's
// window or the Intravisor's code window, and only a munmap inside what
// the caller's own mmap was handed frees anything.
func TestProxiedSyscallsStayInTheirWindow(t *testing.T) {
	iv := newIV(t)
	a, _ := iv.CreateCVM("a", 1<<20)
	b, _ := iv.CreateCVM("b", 1<<20)
	m, _, errno := a.Syscall(MuslMmap, hostos.Args{3*hostos.PageSize - 100})
	if errno != hostos.OK {
		t.Fatalf("mmap: %v", errno)
	}
	bm, _, errno := b.Syscall(MuslMmap, hostos.Args{hostos.PageSize})
	if errno != hostos.OK {
		t.Fatalf("mmap: %v", errno)
	}
	code := iv.codeCap
	const pg = hostos.PageSize
	for _, row := range []struct {
		name  string
		num   MuslSysNo
		args  hostos.Args
		errno hostos.Errno
		freed uint64 // bytes the call returns to the kernel
		by    *CVM   // the caller; nil is a
	}{
		{"clock_gettime", MuslClockGettime, hostos.Args{LinuxClockMonotonic}, hostos.OK, 0, nil},
		{"clock_gettime, unknown clock", MuslClockGettime, hostos.Args{77}, hostos.EINVAL, 0, nil},
		{"mmap of nothing", MuslMmap, hostos.Args{0}, hostos.EINVAL, 0, nil},
		{"futex wait on another cVM's word", 98, hostos.Args{b.Base(), 0, 0}, hostos.ENOSYS, 0, nil},
		{"futex wake", 98, hostos.Args{a.Base(), 1, 1}, hostos.ENOSYS, 0, nil},
		{"munmap of another cVM's window", MuslMunmap, hostos.Args{b.Base(), b.Size()}, hostos.EINVAL, 0, nil},
		{"munmap of a page of another cVM's window", MuslMunmap, hostos.Args{b.Base() + pg, pg}, hostos.EINVAL, 0, nil},
		{"munmap of another cVM's mapping", MuslMunmap, hostos.Args{bm, pg}, hostos.EINVAL, 0, nil},
		{"munmap of the code window", MuslMunmap, hostos.Args{code.Base(), code.Len()}, hostos.EINVAL, 0, nil},
		{"munmap of its own window", MuslMunmap, hostos.Args{a.Base(), a.Size()}, hostos.EINVAL, 0, nil},
		{"munmap past its mapping", MuslMunmap, hostos.Args{m, 4 * pg}, hostos.EINVAL, 0, nil},
		{"munmap of nothing", MuslMunmap, hostos.Args{m, 0}, hostos.EINVAL, 0, nil},
		{"munmap of a wrapping length", MuslMunmap, hostos.Args{m + pg, ^uint64(0)}, hostos.EINVAL, 0, nil},
		{"munmap unaligned", MuslMunmap, hostos.Args{m + 8, pg}, hostos.EINVAL, 0, nil},
		{"munmap of its mapping's middle page", MuslMunmap, hostos.Args{m + pg, pg}, hostos.OK, pg, nil},
		{"munmap of that page again", MuslMunmap, hostos.Args{m + pg, pg}, hostos.EINVAL, 0, nil},
		{"munmap across the hole", MuslMunmap, hostos.Args{m, 3 * pg}, hostos.EINVAL, 0, nil},
		{"munmap of what is left, rounded up", MuslMunmap, hostos.Args{m, 1}, hostos.OK, pg, nil},
		{"munmap of the last page", MuslMunmap, hostos.Args{m + 2*pg, pg}, hostos.OK, pg, nil},
		{"munmap of a mapping by its owner", MuslMunmap, hostos.Args{bm, pg}, hostos.OK, pg, b},
	} {
		caller := a
		if row.by != nil {
			caller = row.by
		}
		free := freeBytes(t, iv.K.Pages)
		if _, _, errno := caller.Syscall(row.num, row.args); errno != row.errno {
			t.Errorf("%s: got %v, want %v", row.name, errno, row.errno)
		}
		if got := freeBytes(t, iv.K.Pages) - free; got != row.freed {
			t.Errorf("%s: freed %d bytes, want %d", row.name, got, row.freed)
		}
		for _, c := range []*CVM{a, b} {
			if c.Trapped() {
				t.Fatalf("%s: cVM %s trapped", row.name, c.Name)
			}
		}
	}
	if len(a.mapped) != 0 || len(b.mapped) != 0 {
		t.Fatalf("spans left after every page was unmapped: a %v, b %v", a.mapped, b.mapped)
	}
}

// TestGateBooksTheCrossing pins the booking site on a virtual clock: a
// served call leaves caller and callee busy through the caller's wait for
// the callee, the work the target booked and one gate crossing; a
// refused call leaves no booking on either side however often it is
// repeated, only a standing mark that costs every other caller the
// hand-off until the refused one is served. A call whose two threads are
// one books the crossing once.
func TestGateBooksTheCrossing(t *testing.T) {
	iv := newIV(t)
	clk := iv.K.Clk.(*sim.VClock)
	clk.Advance(1_000_000)
	now := clk.Now()
	stack, _ := iv.CreateCVM("stack", 1<<20)
	app, _ := iv.CreateCVM("app", 1<<20)
	other, _ := iv.CreateCVM("other", 1<<20)
	const work = 300
	verdict := hostos.OK
	g, err := iv.NewGate(stack, func(*CVM, hostos.Args, cheri.Cap) (uint64, hostos.Errno) {
		if verdict == hostos.OK {
			stack.Book(work)
		}
		return 0, verdict
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := func(c *CVM) int64 { return c.Core.At(now) - now }

	// The callee is 1 µs into earlier work: the caller waits it out.
	stack.Book(1000)
	g.Call(app, hostos.Args{}, cheri.NullCap)
	if want := int64(1000 + work + sim.GateCallNS); busy(app) != want || busy(stack) != want {
		t.Fatalf("served call: app busy %d ns, stack %d ns, want %d on both", busy(app), busy(stack), want)
	}
	if t0 := app.NowNS(); t0 != now+1000+work+sim.GateCallNS+sim.TrampolineNS {
		t.Fatalf("the caller's clock reads %d ns past now, want its bookings and this crossing", t0-now)
	}

	// Refused, thrice: nothing moves.
	clk.Advance(5000)
	now = clk.Now()
	verdict = hostos.EAGAIN
	for i := 0; i < 3; i++ {
		g.Call(other, hostos.Args{}, cheri.NullCap)
	}
	if busy(other) != 0 || busy(stack) != 0 {
		t.Fatalf("refused calls booked %d ns on the caller, %d on the callee, want none", busy(other), busy(stack))
	}

	// While `other` stands refused, app pays the hand-off; other does not
	// pay for itself, and once served it stands no longer.
	verdict = hostos.OK
	g.Call(app, hostos.Args{}, cheri.NullCap)
	if want := int64(sim.HandoffNS + work + sim.GateCallNS); busy(app) != want {
		t.Fatalf("call beside a refused caller: busy %d ns, want %d", busy(app), want)
	}
	clk.Advance(50_000)
	now = clk.Now()
	g.Call(other, hostos.Args{}, cheri.NullCap)
	g.Call(app, hostos.Args{}, cheri.NullCap)
	if want := int64(2 * (work + sim.GateCallNS)); busy(app) != want {
		t.Fatalf("after the refused caller was served: app busy %d ns, want %d (queued behind it, no hand-off)", busy(app), want)
	}

	// One thread on both sides, as a device gate's: the caller's thread
	// runs the callee's code, so a served call books the work and one
	// crossing once, not once per side; and a call that moves nothing
	// books nothing, however often it repeats.
	var thread sim.Core
	same, err := iv.NewGateOn(stack, func(*CVM, hostos.Args) (*sim.Core, *sim.Core) { return &thread, &thread },
		func(*CVM, hostos.Args, cheri.Cap) (uint64, hostos.Errno) {
			if verdict == hostos.OK {
				thread.Book(clk.Now(), work)
			}
			return 0, verdict
		})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(50_000)
	now = clk.Now()
	thread.Book(now, 1000)
	before := busy(stack)
	same.Call(stack, hostos.Args{}, cheri.NullCap)
	if got, want := thread.At(now)-now, int64(1000+work+sim.GateCallNS); got != want {
		t.Fatalf("served call on one thread: busy %d ns, want %d (its earlier work, the call's and one crossing)", got, want)
	}
	if busy(stack) != before {
		t.Fatalf("a call on its own thread booked %d ns on the owner cVM", busy(stack)-before)
	}
	verdict = hostos.EAGAIN
	for i := 0; i < 5; i++ {
		same.Call(stack, hostos.Args{}, cheri.NullCap)
	}
	if got, want := thread.At(now)-now, int64(1000+work+sim.GateCallNS); got != want {
		t.Fatalf("five calls that moved nothing: busy %d ns, want %d (unchanged)", got, want)
	}
}
