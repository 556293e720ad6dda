package cheri

// EntryPair is a sealed (code, data) capability pair: the only way to
// enter another compartment. On hardware, invoking the pair installs the
// unsealed halves as PCC and DDC, so control can only land on the
// compartment's designated entry point with its designated data view.
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

// CInvoke checks the sealed-pair domain crossing (blrs on Morello): both
// halves tagged, sealed with one object type and invocable, the code half
// executable and the data half not, and the unsealed code capability
// fetchable at its cursor. It returns the first violation as a *Fault, in
// that order. The model interprets no instructions, so a pair that passes
// installs nothing: what the callee then touches, it touches through the
// capabilities its own compartment holds.
func CInvoke(p EntryPair) error {
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
	return code.CheckFetch(code.addr)
}
