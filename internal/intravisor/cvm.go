package intravisor

import (
	"fmt"

	"repro/internal/cheri"
	"repro/internal/sim"
)

// CVM is a capability-VM: an isolated component running as a thread of
// the Intravisor, confined to the DDC window it was granted.
type CVM struct {
	Name string
	ID   int

	iv    *Intravisor
	base  uint64
	size  uint64
	ddc   cheri.Cap
	entry cheri.EntryPair // sealed entry into the Intravisor

	// Core is the virtual time the compartment's thread has booked.
	Core sim.Core
	// refused marks, by ID, the callers standing refused on this
	// compartment's gates (Gate.Call's settle).
	refused uint64

	// trap is the fault that terminated the cVM; nil while it runs.
	trap *cheri.Fault

	// mapped is what the proxy's mmap handed the cVM and it has not
	// unmapped: the only ranges its munmap reaches.
	mapped []span
}

// span is a page-aligned range [base, base+size) of machine memory.
type span struct{ base, size uint64 }

// Base returns the base address of the cVM's memory window.
func (c *CVM) Base() uint64 { return c.base }

// Size returns the size of the cVM's memory window.
func (c *CVM) Size() uint64 { return c.size }

// Book charges ns of the compartment's own work to its thread.
func (c *CVM) Book(ns int64) { c.Core.Book(c.iv.K.Clk.Now(), ns) }

// DDC returns the cVM's default data capability.
func (c *CVM) DDC() cheri.Cap { return c.ddc }

// State names the cVM's state for reports: "trapped" or "running".
func (c *CVM) State() string {
	if c.Trapped() {
		return "trapped"
	}
	return "running"
}

// Trap records a capability fault and terminates the cVM, as CheriBSD's
// SIGPROT delivery does for the paper's Fig. 3 experiment.
func (c *CVM) Trap(f *cheri.Fault) { c.trap = f }

// Trapped reports whether the cVM is dead from a capability fault (the
// supervisor's poll predicate).
func (c *CVM) Trapped() bool { return c.trap != nil }

// Restart revives a trapped cVM in place. Intravisor restarts a crashed
// compartment by re-entering its loader over the same memory window
// (pages are never returned to the host), so the model re-derives the
// DDC from the root rather than re-allocating: the window, ID and name
// survive; every capability the old incarnation held is dead because new
// gates must be sealed over the fresh DDC.
func (c *CVM) Restart() error {
	if !c.Trapped() {
		return fmt.Errorf("intravisor: restart of cVM %q, which is running", c.Name)
	}
	ddc, err := c.iv.root.SetAddr(c.base).SetBounds(c.size)
	if err != nil {
		return err
	}
	ddc, err = ddc.AndPerms(cheri.PermData)
	if err != nil {
		return err
	}
	c.ddc = ddc
	c.trap = nil
	return nil
}

// faultOf converts an error to *cheri.Fault when it is one.
func faultOf(err error) (*cheri.Fault, bool) {
	f, ok := err.(*cheri.Fault)
	return f, ok
}

// Load performs a hybrid-mode load through the cVM's DDC. A capability
// violation traps the cVM (the access is the compartment's own code
// touching memory it should not).
func (c *CVM) Load(addr uint64, dst []byte) error {
	if err := c.iv.K.Mem.Load(c.ddc, addr, dst); err != nil {
		if f, ok := faultOf(err); ok {
			c.Trap(f)
		}
		return err
	}
	return nil
}

// Store performs a hybrid-mode store through the cVM's DDC, trapping the
// cVM on a capability violation.
func (c *CVM) Store(addr uint64, src []byte) error {
	if err := c.iv.K.Mem.Store(c.ddc, addr, src); err != nil {
		if f, ok := faultOf(err); ok {
			c.Trap(f)
		}
		return err
	}
	return nil
}

// DeriveBuf derives a bounded capability over [addr, addr+n) of the
// cVM's window, the way pure-capability code materializes a buffer
// argument before passing it to an API that takes a `void * __capability`.
func (c *CVM) DeriveBuf(addr uint64, n uint64) (cheri.Cap, error) {
	b, err := c.ddc.SetAddr(addr).SetBounds(n)
	if err != nil {
		if f, ok := faultOf(err); ok {
			c.Trap(f)
		}
		return cheri.NullCap, err
	}
	return b, nil
}
