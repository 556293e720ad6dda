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

// TestCInvokeAcceptsWellFormedPair is the rejection tests' control: the
// pair SealEntryPair builds passes every check.
func TestCInvokeAcceptsWellFormedPair(t *testing.T) {
	mem := NewTMem(1 << 20)
	if err := CInvoke(buildPair(t, mem, 0x1000, 0x1000, 0x8000, 0x4000, 7)); err != nil {
		t.Fatalf("CInvoke: %v", err)
	}
}

func TestCInvokeRejectsMismatchedOTypes(t *testing.T) {
	mem := NewTMem(1 << 20)
	a := buildPair(t, mem, 0x1000, 0x1000, 0x8000, 0x4000, 7)
	b := buildPair(t, mem, 0x2000, 0x1000, 0xC000, 0x4000, 8)
	mixed := EntryPair{Code: a.Code, Data: b.Data}
	if err := CInvoke(mixed); !IsFault(err, FaultOType) {
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
	if err := CInvoke(EntryPair{Code: code, Data: data}); !IsFault(err, FaultSeal) {
		t.Fatalf("unsealed pair: got %v, want seal fault", err)
	}
}

func TestCInvokeRejectsUntagged(t *testing.T) {
	mem := NewTMem(1 << 20)
	pair := buildPair(t, mem, 0x1000, 0x1000, 0x8000, 0x4000, 7)
	pair.Code = pair.Code.ClearTag()
	if err := CInvoke(pair); !IsFault(err, FaultTag) {
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
	if err := CInvoke(EntryPair{Code: sc, Data: sd}); !IsFault(err, FaultPermExecute) {
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
