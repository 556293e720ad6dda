package cheri

// Operations only the tests need: the model never clears a tag or
// checks a load or store outside a TMem access, and unseals only in
// CInvoke.

// ClearTag returns an invalidated copy of c.
func (c Cap) ClearTag() Cap {
	c.tag = false
	return c
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
