package cheri

// NumRegs is the number of general-purpose capability registers in a
// compartment context (c0..c30 on Morello, plus CSP).
const NumRegs = 32

// Context is a compartment execution context: the Program Counter
// Capability (PCC), the Default Data Capability (DDC) and a register file
// of capability registers. In hybrid-mode code every legacy load/store is
// implicitly checked against the DDC; a compartment therefore cannot
// touch memory outside its DDC bounds (paper §II-A).
//
// The register file is held by reference and never written in place: a
// nil file is every register null, and SetReg installs a fresh copy. So
// copying a Context (a per-thread context seeded from a cVM's template)
// copies two capabilities and a pointer, and a write to the copy never
// reaches the template.
type Context struct {
	PCC  Cap
	DDC  Cap
	regs *[NumRegs]Cap // nil: every register null
}

// Reg returns capability register i.
func (ctx *Context) Reg(i int) Cap {
	if ctx.regs == nil {
		return NullCap
	}
	return ctx.regs[i]
}

// SetReg writes capability register i, into a fresh copy of the file.
func (ctx *Context) SetReg(i int, c Cap) {
	regs := new([NumRegs]Cap)
	for j := range regs {
		regs[j] = ctx.Reg(j)
	}
	regs[i] = c
	ctx.regs = regs
}

// Frame is a saved register state, taken by trampolines on every domain
// crossing. What a crossing costs in the model is sim's crossing-cost
// table; taking a frame is O(1) on the host, since a register file is
// never written in place.
type Frame Context

// Save captures the full register state.
func (ctx *Context) Save() Frame { return Frame(*ctx) }

// Restore reinstates a previously saved register state.
func (ctx *Context) Restore(f Frame) { *ctx = Context(f) }

// ClearVolatile nulls the caller-saved registers so no capabilities leak
// across a domain boundary (trampolines call this on entry and exit).
func (ctx *Context) ClearVolatile() {
	ctx.regs = nil
}

// Load performs a hybrid-mode (DDC-relative) load into dst.
func (ctx *Context) Load(m *TMem, addr uint64, dst []byte) error {
	return m.Load(ctx.DDC, addr, dst)
}

// Store performs a hybrid-mode (DDC-relative) store from src.
func (ctx *Context) Store(m *TMem, addr uint64, src []byte) error {
	return m.Store(ctx.DDC, addr, src)
}

// EntryPair is a sealed (code, data) capability pair: the only way to
// enter another compartment. Invoking the pair atomically installs the
// unsealed code capability as PCC and the unsealed data capability as
// DDC, so control can only land on the compartment's designated entry
// point with the compartment's designated data view.
type EntryPair struct {
	Code Cap
	Data Cap
}

// SealEntryPair seals code and data with the object type designated by
// sealer and returns the pair. code must be executable; both receive
// PermInvoke before sealing so that CInvoke accepts them.
func SealEntryPair(code, data, sealer Cap) (EntryPair, error) {
	if !code.Perms().Has(PermExecute) {
		return EntryPair{}, newFault(FaultPermExecute, "sealentry", code, code.Addr(), 0)
	}
	if !code.Perms().Has(PermInvoke) {
		return EntryPair{}, newFault(FaultPermInvoke, "sealentry", code, code.Addr(), 0)
	}
	if !data.Perms().Has(PermInvoke) {
		return EntryPair{}, newFault(FaultPermInvoke, "sealentry", data, data.Addr(), 0)
	}
	sc, err := code.Seal(sealer)
	if err != nil {
		return EntryPair{}, err
	}
	sd, err := data.Seal(sealer)
	if err != nil {
		return EntryPair{}, err
	}
	return EntryPair{Code: sc, Data: sd}, nil
}

// CInvoke performs the sealed-pair domain crossing (blrs on Morello):
// it validates the pair and installs the unsealed code capability as PCC
// and the unsealed data capability as DDC. On any violation the context
// is left unchanged and a *Fault is returned.
func (ctx *Context) CInvoke(p EntryPair) error {
	code, data := p.Code, p.Data
	if !code.tag {
		return newFault(FaultTag, "cinvoke", code, code.addr, 0)
	}
	if !data.tag {
		return newFault(FaultTag, "cinvoke", data, data.addr, 0)
	}
	if !code.Sealed() || !data.Sealed() {
		return newFault(FaultSeal, "cinvoke", code, code.addr, 0)
	}
	if code.otype != data.otype {
		return newFault(FaultOType, "cinvoke", code, code.addr, 0)
	}
	if !code.perms.Has(PermInvoke) {
		return newFault(FaultPermInvoke, "cinvoke", code, code.addr, 0)
	}
	if !data.perms.Has(PermInvoke) {
		return newFault(FaultPermInvoke, "cinvoke", data, data.addr, 0)
	}
	if !code.perms.Has(PermExecute) {
		return newFault(FaultPermExecute, "cinvoke", code, code.addr, 0)
	}
	if data.perms.Has(PermExecute) {
		return newFault(FaultPermExecute, "cinvoke", data, data.addr, 0)
	}
	code.otype = OTypeUnsealed
	data.otype = OTypeUnsealed
	if err := code.CheckFetch(code.addr); err != nil {
		return err
	}
	ctx.PCC = code
	ctx.DDC = data
	return nil
}
