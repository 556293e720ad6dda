package cheri

// Operations only the tests need: the model never unseals, clears a tag
// or checks a load or store outside a TMem access.

// ClearTag returns an invalidated copy of c.
func (c Cap) ClearTag() Cap {
	c.tag = false
	return c
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
	return c, nil
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

// IsFault reports whether err is a *Fault of the given kind.
func IsFault(err error, kind FaultKind) bool {
	f, ok := err.(*Fault)
	return ok && f.Kind == kind
}

// HugePages reports how many of m's hugepages are backed.
func (m *TMem) HugePages() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}
