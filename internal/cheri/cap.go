package cheri

import "fmt"

// OType is a capability object type. Unsealed capabilities carry
// OTypeUnsealed; sealing assigns an otype in [OTypeFirst, OTypeLast].
type OType uint32

const (
	// OTypeUnsealed marks an unsealed capability.
	OTypeUnsealed OType = 0xFFFFFFFF
	// OTypeFirst is the smallest otype available for sealing.
	OTypeFirst OType = 1
	// OTypeLast is the largest otype available for sealing.
	OTypeLast OType = 0x00FFFFFF
)

// CapSize is the architectural size of a capability in bytes (a 128-bit
// capability; its tag is out of band). TMem rounds memory to it.
const CapSize = 16

// Cap is a CHERI capability: a bounded, permission-carrying, optionally
// sealed reference to a range of memory.
//
// The zero Cap is the null capability: untagged, zero bounds, no
// permissions. Any attempted use faults with FaultTag.
type Cap struct {
	base   uint64
	length uint64
	addr   uint64 // cursor; may sit outside bounds, checked at use
	perms  Perm
	otype  OType
	tag    bool
}

// NullCap is the canonical invalid capability.
var NullCap = Cap{otype: OTypeUnsealed}

// NewRoot constructs a root capability over [base, base+length) with the
// given permissions. Roots are minted only by the architecture (memory
// construction) and by the Intravisor at boot; compartment code derives
// everything else from them.
func NewRoot(base, length uint64, perms Perm) Cap {
	return Cap{
		base:   base,
		length: length,
		addr:   base,
		perms:  perms,
		otype:  OTypeUnsealed,
		tag:    true,
	}
}

// Tag reports whether the capability is valid.
func (c Cap) Tag() bool { return c.tag }

// Base returns the lower bound.
func (c Cap) Base() uint64 { return c.base }

// Len returns the length of the addressable range.
func (c Cap) Len() uint64 { return c.length }

// Top returns the exclusive upper bound.
func (c Cap) Top() uint64 { return c.base + c.length }

// Addr returns the cursor.
func (c Cap) Addr() uint64 { return c.addr }

// Offset returns the cursor relative to base.
func (c Cap) Offset() uint64 { return c.addr - c.base }

// Perms returns the permission set.
func (c Cap) Perms() Perm { return c.perms }

// OType returns the object type; OTypeUnsealed when unsealed.
func (c Cap) OType() OType { return c.otype }

// Sealed reports whether the capability is sealed.
func (c Cap) Sealed() bool { return c.otype != OTypeUnsealed }

// InBounds reports whether an access of size n at addr lies fully inside
// the capability's bounds. n must be > 0.
func (c Cap) InBounds(addr uint64, n int) bool {
	if n <= 0 {
		return false
	}
	end := addr + uint64(n)
	return addr >= c.base && end >= addr && end <= c.Top()
}

// String renders the capability in CheriBSD's %#p-like format.
func (c Cap) String() string {
	t := ""
	if !c.tag {
		t = " (invalid)"
	}
	s := ""
	if c.Sealed() {
		s = fmt.Sprintf(" sealed(otype=%d)", c.otype)
	}
	return fmt.Sprintf("cap[%#x-%#x) addr=%#x perms=%v%s%s",
		c.base, c.Top(), c.addr, c.perms, s, t)
}

// --- derivation (all monotonic) ---

// checkDerivable returns a fault if c cannot be used as a derivation
// source at all.
func (c Cap) checkDerivable(op string) *Fault {
	if !c.tag {
		return newFault(FaultTag, op, c, c.addr, 0)
	}
	if c.Sealed() {
		return newFault(FaultSeal, op, c, c.addr, 0)
	}
	return nil
}

// SetAddr returns a copy of c with the cursor moved to addr. Following
// the architecture, moving the cursor never faults: bounds are enforced
// when the capability is used, not when it is pointed.
func (c Cap) SetAddr(addr uint64) Cap {
	c.addr = addr
	return c
}

// IncAddr advances the cursor by delta (which may be interpreted as
// signed two's-complement, as in pointer arithmetic).
func (c Cap) IncAddr(delta uint64) Cap {
	c.addr += delta
	return c
}

// SetBounds derives a capability whose bounds are [c.Addr(),
// c.Addr()+length). The new range must lie within the parent's bounds;
// otherwise the derivation faults with FaultMonotonicity (length
// increase) or FaultBounds (cursor outside the parent).
func (c Cap) SetBounds(length uint64) (Cap, error) {
	if f := c.checkDerivable("setbounds"); f != nil {
		return NullCap, f
	}
	newBase := c.addr
	newTop := newBase + length
	if newTop < newBase { // wrap-around
		return NullCap, newFault(FaultMonotonicity, "setbounds", c, newBase, int(length))
	}
	if newBase < c.base || newTop > c.Top() {
		return NullCap, newFault(FaultMonotonicity, "setbounds", c, newBase, int(length))
	}
	c.base = newBase
	c.length = length
	c.addr = newBase
	return c, nil
}

// AndPerms derives a capability whose permissions are the intersection of
// the parent's permissions and mask. Permissions can only be removed —
// the operation cannot fault on the mask itself.
func (c Cap) AndPerms(mask Perm) (Cap, error) {
	if f := c.checkDerivable("andperms"); f != nil {
		return NullCap, f
	}
	c.perms &= mask
	return c, nil
}

// ClearTag returns an invalidated copy of c.
func (c Cap) ClearTag() Cap {
	c.tag = false
	return c
}

// Seal returns c sealed with the object type designated by sealer's
// cursor. The sealer must be tagged, unsealed, hold PermSeal, and its
// cursor must be an in-bounds, in-range otype.
func (c Cap) Seal(sealer Cap) (Cap, error) {
	if f := c.checkDerivable("seal"); f != nil {
		return NullCap, f
	}
	if !sealer.tag {
		return NullCap, newFault(FaultTag, "seal", sealer, sealer.addr, 0)
	}
	if sealer.Sealed() {
		return NullCap, newFault(FaultSeal, "seal", sealer, sealer.addr, 0)
	}
	if !sealer.perms.Has(PermSeal) {
		return NullCap, newFault(FaultPermSeal, "seal", sealer, sealer.addr, 0)
	}
	// The cursor is range-checked as the 64-bit value it is: converting
	// first would let cursor 2^32+n alias otype n.
	a := sealer.addr
	if !sealer.InBounds(a, 1) || a < uint64(OTypeFirst) || a > uint64(OTypeLast) {
		return NullCap, newFault(FaultOType, "seal", sealer, a, 0)
	}
	c.otype = OType(a)
	return c, nil
}

// Unseal returns c unsealed. The unsealer must be tagged, unsealed, hold
// PermUnseal, and its cursor must equal c's otype (and be in bounds).
func (c Cap) Unseal(unsealer Cap) (Cap, error) {
	if !c.tag {
		return NullCap, newFault(FaultTag, "unseal", c, c.addr, 0)
	}
	if !c.Sealed() {
		return NullCap, newFault(FaultSeal, "unseal", c, c.addr, 0)
	}
	if !unsealer.tag {
		return NullCap, newFault(FaultTag, "unseal", unsealer, unsealer.addr, 0)
	}
	if unsealer.Sealed() {
		return NullCap, newFault(FaultSeal, "unseal", unsealer, unsealer.addr, 0)
	}
	if !unsealer.perms.Has(PermUnseal) {
		return NullCap, newFault(FaultPermUnseal, "unseal", unsealer, unsealer.addr, 0)
	}
	if !unsealer.InBounds(unsealer.addr, 1) || unsealer.addr != uint64(c.otype) {
		return NullCap, newFault(FaultOType, "unseal", unsealer, unsealer.addr, 0)
	}
	c.otype = OTypeUnsealed
	// Unsealing strips Global unless the unsealer is itself global —
	// simplification: keep perms unchanged; CheriBSD's behaviour for the
	// otype ranges used here is identity on permissions.
	return c, nil
}

// BuildCap validates that cand is derivable from auth (bounds within,
// perms a subset) and returns a tagged copy of cand. It mirrors the
// CBuildCap instruction used to re-derive capabilities after swapping.
func BuildCap(auth, cand Cap) (Cap, error) {
	if f := auth.checkDerivable("buildcap"); f != nil {
		return NullCap, f
	}
	if cand.base < auth.base || cand.Top() > auth.Top() || cand.Top() < cand.base {
		return NullCap, newFault(FaultMonotonicity, "buildcap", auth, cand.base, int(cand.length))
	}
	if cand.perms&^auth.perms != 0 {
		return NullCap, newFault(FaultMonotonicity, "buildcap", auth, cand.base, 0)
	}
	cand.tag = true
	cand.otype = OTypeUnsealed
	return cand, nil
}

// --- use checks (called by TMem and Context) ---
//
// Every use check is split in two. permits is the whole success path:
// one predicate the compiler inlines into each caller as a chain of
// compares on the capability's fields where they lie, as the hardware
// tests them in parallel. useFault is the failure path, out of line: it
// re-derives which check failed, in the fixed precedence the package
// doc states.

// permits reports whether an access of n bytes at addr needing every
// permission in need passes all the checks: c is tagged and unsealed,
// holds need, and [addr, addr+n) is non-empty, does not wrap and lies
// inside its bounds. The pointer receiver is what keeps it cheap: a
// value receiver copies the capability once per call.
func (c *Cap) permits(need Perm, addr uint64, n int) bool {
	end := addr + uint64(n)
	return c.tag && c.otype == OTypeUnsealed && c.perms&need == need &&
		n > 0 && addr >= c.base && end >= addr && end <= c.base+c.length
}

// useFault is the fault of one use check (an access needing perm under
// op, or kind when perm is missing) that permits refused: tag, seal,
// permission, bounds, the first that fails; nil if none does.
func (c *Cap) useFault(op string, perm Perm, kind FaultKind, addr uint64, n int) *Fault {
	switch {
	case !c.tag:
		return newFault(FaultTag, op, *c, addr, n)
	case c.Sealed():
		return newFault(FaultSeal, op, *c, addr, n)
	case !c.perms.Has(perm):
		return newFault(kind, op, *c, addr, n)
	case !c.InBounds(addr, n):
		return newFault(FaultBounds, op, *c, addr, n)
	}
	return nil
}

// CheckLoad verifies a data load of n bytes at addr through c.
func (c Cap) CheckLoad(addr uint64, n int) error {
	if c.permits(PermLoad, addr, n) {
		return nil
	}
	return c.useFault("load", PermLoad, FaultPermLoad, addr, n)
}

// CheckStore verifies a data store of n bytes at addr through c.
func (c Cap) CheckStore(addr uint64, n int) error {
	if c.permits(PermStore, addr, n) {
		return nil
	}
	return c.useFault("store", PermStore, FaultPermStore, addr, n)
}

// CheckFetch verifies an instruction fetch at addr through c (PCC use).
func (c Cap) CheckFetch(addr uint64) error {
	if c.permits(PermExecute, addr, 4) {
		return nil
	}
	return c.useFault("fetch", PermExecute, FaultPermExecute, addr, 4)
}
