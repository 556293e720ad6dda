package cheri

import "testing"

// buildPair makes a sealed entry pair over the given code/data windows.
func buildPair(t *testing.T, mem *TMem, codeBase, codeLen, dataBase, dataLen uint64, otype uint64) EntryPair {
	t.Helper()
	root := mem.Root()
	code, err := root.SetAddr(codeBase).SetBounds(codeLen)
	if err != nil {
		t.Fatal(err)
	}
	code, err = code.AndPerms(PermCode | PermInvoke)
	if err != nil {
		t.Fatal(err)
	}
	data, err := root.SetAddr(dataBase).SetBounds(dataLen)
	if err != nil {
		t.Fatal(err)
	}
	data, err = data.AndPerms(PermData | PermInvoke)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := root.SetAddr(uint64(OTypeFirst)).SetBounds(1<<20 - uint64(OTypeFirst))
	if err != nil {
		t.Fatal(err)
	}
	sealer, err = sealer.AndPerms(PermSeal | PermUnseal)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := SealEntryPair(code, data, sealer.SetAddr(otype))
	if err != nil {
		t.Fatalf("SealEntryPair: %v", err)
	}
	return pair
}

func TestCInvokeInstallsCompartment(t *testing.T) {
	mem := NewTMem(1 << 20)
	pair := buildPair(t, mem, 0x1000, 0x1000, 0x8000, 0x4000, 7)

	var ctx Context
	if err := ctx.CInvoke(pair); err != nil {
		t.Fatalf("CInvoke: %v", err)
	}
	if ctx.PCC.Sealed() || ctx.DDC.Sealed() {
		t.Fatal("installed PCC/DDC must be unsealed")
	}
	if ctx.DDC.Base() != 0x8000 || ctx.DDC.Len() != 0x4000 {
		t.Fatalf("DDC bounds wrong: %v", ctx.DDC)
	}
	// The compartment can touch its own window...
	if err := ctx.Store(mem, 0x8000, []byte{1, 2, 3}); err != nil {
		t.Fatalf("in-bounds store: %v", err)
	}
	// ...and faults outside it (paper Fig. 3).
	err := ctx.Store(mem, 0xC000, []byte{1})
	if !IsFault(err, FaultBounds) {
		t.Fatalf("out-of-DDC store: got %v, want capability out-of-bounds", err)
	}
}

func TestCInvokeRejectsMismatchedOTypes(t *testing.T) {
	mem := NewTMem(1 << 20)
	a := buildPair(t, mem, 0x1000, 0x1000, 0x8000, 0x4000, 7)
	b := buildPair(t, mem, 0x2000, 0x1000, 0xC000, 0x4000, 8)
	mixed := EntryPair{Code: a.Code, Data: b.Data}
	var ctx Context
	if err := ctx.CInvoke(mixed); !IsFault(err, FaultOType) {
		t.Fatalf("mixed pair: got %v, want otype fault", err)
	}
}

func TestCInvokeRejectsUnsealed(t *testing.T) {
	mem := NewTMem(1 << 20)
	root := mem.Root()
	code, _ := root.SetAddr(0x1000).SetBounds(0x100)
	code, _ = code.AndPerms(PermCode | PermInvoke)
	data, _ := root.SetAddr(0x8000).SetBounds(0x100)
	data, _ = data.AndPerms(PermData | PermInvoke)
	var ctx Context
	if err := ctx.CInvoke(EntryPair{Code: code, Data: data}); !IsFault(err, FaultSeal) {
		t.Fatalf("unsealed pair: got %v, want seal fault", err)
	}
}

func TestCInvokeRejectsUntagged(t *testing.T) {
	mem := NewTMem(1 << 20)
	pair := buildPair(t, mem, 0x1000, 0x1000, 0x8000, 0x4000, 7)
	pair.Code = pair.Code.ClearTag()
	var ctx Context
	if err := ctx.CInvoke(pair); !IsFault(err, FaultTag) {
		t.Fatalf("untagged code: got %v, want tag fault", err)
	}
}

func TestCInvokeRejectsExecutableData(t *testing.T) {
	mem := NewTMem(1 << 20)
	root := mem.Root()
	sealer, _ := root.SetAddr(9).SetBounds(16)
	sealer, _ = sealer.AndPerms(PermSeal)
	sealer = sealer.SetAddr(9)
	code, _ := root.SetAddr(0x1000).SetBounds(0x100)
	code, _ = code.AndPerms(PermCode | PermInvoke)
	// Data capability that (wrongly) retains execute rights.
	data, _ := root.SetAddr(0x8000).SetBounds(0x100)
	data, _ = data.AndPerms(PermData | PermInvoke | PermExecute)
	sc, err := code.Seal(sealer)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := data.Seal(sealer)
	if err != nil {
		t.Fatal(err)
	}
	var ctx Context
	if err := ctx.CInvoke(EntryPair{Code: sc, Data: sd}); !IsFault(err, FaultPermExecute) {
		t.Fatalf("executable data cap: got %v, want permit-execute fault", err)
	}
}

func TestSealEntryPairValidation(t *testing.T) {
	mem := NewTMem(1 << 20)
	root := mem.Root()
	sealer, _ := root.SetAddr(5).SetBounds(16)
	sealer, _ = sealer.AndPerms(PermSeal)
	sealer = sealer.SetAddr(5)
	data, _ := root.SetAddr(0x8000).SetBounds(0x100)
	data, _ = data.AndPerms(PermData | PermInvoke)
	// Non-executable code capability is rejected.
	notCode, _ := root.SetAddr(0x1000).SetBounds(0x100)
	notCode, _ = notCode.AndPerms(PermData | PermInvoke)
	if _, err := SealEntryPair(notCode, data, sealer); !IsFault(err, FaultPermExecute) {
		t.Fatalf("non-exec code: got %v, want permit-execute fault", err)
	}
	// Missing PermInvoke is rejected.
	code, _ := root.SetAddr(0x1000).SetBounds(0x100)
	code, _ = code.AndPerms(PermCode)
	if _, err := SealEntryPair(code, data, sealer); !IsFault(err, FaultPermInvoke) {
		t.Fatalf("no-invoke code: got %v, want permit-invoke fault", err)
	}
}

func TestSaveRestoreFrame(t *testing.T) {
	mem := NewTMem(1 << 20)
	root := mem.Root()
	var ctx Context
	ctx.DDC = root
	reg, _ := root.SetAddr(0x100).SetBounds(0x10)
	ctx.SetReg(3, reg)

	f := ctx.Save()
	ctx.ClearVolatile()
	if ctx.Reg(3).Tag() {
		t.Fatal("ClearVolatile left a live capability")
	}
	ctx.DDC = NullCap
	ctx.Restore(f)
	if !ctx.Reg(3).Tag() || ctx.Reg(3).Base() != 0x100 {
		t.Fatalf("restore lost register state: %v", ctx.Reg(3))
	}
	if ctx.DDC.Len() != mem.Size() {
		t.Fatalf("restore lost DDC: %v", ctx.DDC)
	}
}

// TestRegisterFileIsNeverSharedByAWrite: a copied context shares its
// register file until one side writes a register, and the write never
// shows through the other; an empty file reads null everywhere.
func TestRegisterFileIsNeverSharedByAWrite(t *testing.T) {
	mem := NewTMem(1 << 20)
	root := mem.Root()
	var tmpl Context
	for i := 0; i < NumRegs; i++ {
		if tmpl.Reg(i) != NullCap {
			t.Fatalf("register %d of an empty file reads %v, want null", i, tmpl.Reg(i))
		}
	}
	a, _ := root.SetAddr(0x100).SetBounds(0x10)
	b, _ := root.SetAddr(0x200).SetBounds(0x10)
	tmpl.SetReg(5, a)
	call := tmpl
	call.SetReg(5, b)
	call.SetReg(6, b)
	if tmpl.Reg(5) != a || tmpl.Reg(6) != NullCap {
		t.Fatalf("a write to the copy reached the template: r5 %v, r6 %v", tmpl.Reg(5), tmpl.Reg(6))
	}
	if call.Reg(5) != b || call.Reg(6) != b || call.Reg(4) != NullCap {
		t.Fatalf("the copy reads r4 %v, r5 %v, r6 %v", call.Reg(4), call.Reg(5), call.Reg(6))
	}
	// A frame saved before a write restores the file as it was.
	f := call.Save()
	call.SetReg(6, a)
	call.Restore(f)
	if call.Reg(6) != b {
		t.Fatalf("restore after a write reads r6 %v, want the saved %v", call.Reg(6), b)
	}
}
