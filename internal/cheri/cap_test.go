package cheri

import (
	"strings"
	"testing"
)

func TestNullCapIsInvalid(t *testing.T) {
	if NullCap.Tag() {
		t.Fatal("null capability must be untagged")
	}
	if err := NullCap.CheckLoad(0, 1); !IsFault(err, FaultTag) {
		t.Fatalf("load through null cap: got %v, want tag fault", err)
	}
	if err := NullCap.CheckStore(0, 1); !IsFault(err, FaultTag) {
		t.Fatalf("store through null cap: got %v, want tag fault", err)
	}
}

func TestNewRootProperties(t *testing.T) {
	c := NewRoot(0x1000, 0x2000, PermAll)
	if !c.Tag() {
		t.Fatal("root must be tagged")
	}
	if c.Base() != 0x1000 || c.Len() != 0x2000 || c.Top() != 0x3000 {
		t.Fatalf("bounds wrong: %v", c)
	}
	if c.Addr() != c.Base() {
		t.Fatalf("cursor must start at base: %v", c)
	}
	if c.Sealed() {
		t.Fatal("root must be unsealed")
	}
}

func TestSetBoundsNarrows(t *testing.T) {
	root := NewRoot(0, 0x10000, PermAll)
	sub, err := root.SetAddr(0x100).SetBounds(0x200)
	if err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if sub.Base() != 0x100 || sub.Len() != 0x200 || sub.Top() != 0x300 {
		t.Fatalf("derived bounds wrong: %v", sub)
	}
	if sub.Perms() != root.Perms() {
		t.Fatalf("perms must be inherited: %v", sub)
	}
}

func TestSetBoundsRejectsWidening(t *testing.T) {
	root := NewRoot(0x100, 0x100, PermAll)
	if _, err := root.SetBounds(0x200); !IsFault(err, FaultMonotonicity) {
		t.Fatalf("widening length: got %v, want monotonicity fault", err)
	}
	// Cursor below base after SetAddr.
	if _, err := root.SetAddr(0x80).SetBounds(0x10); !IsFault(err, FaultMonotonicity) {
		t.Fatalf("base below parent: got %v, want monotonicity fault", err)
	}
	// Wrap-around length.
	if _, err := root.SetBounds(^uint64(0)); !IsFault(err, FaultMonotonicity) {
		t.Fatalf("wrapping length: got %v, want monotonicity fault", err)
	}
}

func TestAndPermsOnlyRemoves(t *testing.T) {
	root := NewRoot(0, 0x1000, PermLoad|PermStore)
	ro, err := root.AndPerms(PermLoad)
	if err != nil {
		t.Fatalf("AndPerms: %v", err)
	}
	if ro.Perms() != PermLoad {
		t.Fatalf("got perms %v, want r", ro.Perms())
	}
	// Asking for a permission the parent lacks silently yields the
	// intersection (monotone), never a widened set.
	rx, err := root.AndPerms(PermLoad | PermExecute)
	if err != nil {
		t.Fatalf("AndPerms: %v", err)
	}
	if rx.Perms() != PermLoad {
		t.Fatalf("got perms %v, want r only", rx.Perms())
	}
	if err := ro.CheckStore(0, 1); !IsFault(err, FaultPermStore) {
		t.Fatalf("store through r-only cap: got %v, want permit-store fault", err)
	}
}

func TestBoundsChecking(t *testing.T) {
	c := NewRoot(0x100, 0x100, PermData)
	cases := []struct {
		addr uint64
		n    int
		ok   bool
	}{
		{0x100, 1, true},
		{0x100, 0x100, true},
		{0x1ff, 1, true},
		{0x1ff, 2, false},
		{0x200, 1, false},
		{0xff, 1, false},
		{0x100, 0, false},
		{^uint64(0), 2, false}, // overflowing access
	}
	for _, tc := range cases {
		got := c.InBounds(tc.addr, tc.n)
		if got != tc.ok {
			t.Errorf("InBounds(%#x,%d) = %v, want %v", tc.addr, tc.n, got, tc.ok)
		}
	}
}

func TestCheckLoadFaultKinds(t *testing.T) {
	c := NewRoot(0x100, 0x100, PermData)
	if err := c.CheckLoad(0x300, 4); !IsFault(err, FaultBounds) {
		t.Fatalf("oob load: got %v, want bounds fault", err)
	}
	noload, _ := c.AndPerms(PermStore)
	if err := noload.CheckLoad(0x100, 4); !IsFault(err, FaultPermLoad) {
		t.Fatalf("no-perm load: got %v, want permit-load fault", err)
	}
	dead := c.ClearTag()
	if err := dead.CheckLoad(0x100, 4); !IsFault(err, FaultTag) {
		t.Fatalf("untagged load: got %v, want tag fault", err)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	sealer := NewRoot(10, 100, PermSeal|PermUnseal).SetAddr(42)
	victim := NewRoot(0x1000, 0x100, PermData)

	sealed, err := victim.Seal(sealer)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if !sealed.Sealed() || sealed.OType() != 42 {
		t.Fatalf("sealed cap wrong: %v", sealed)
	}
	// A sealed capability cannot be dereferenced or re-derived.
	if err := sealed.CheckLoad(0x1000, 1); !IsFault(err, FaultSeal) {
		t.Fatalf("load through sealed: got %v, want seal fault", err)
	}
	if _, err := sealed.SetBounds(1); !IsFault(err, FaultSeal) {
		t.Fatalf("setbounds on sealed: got %v, want seal fault", err)
	}

	back, err := sealed.Unseal(sealer)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if back.Sealed() {
		t.Fatal("unsealed cap still sealed")
	}
	if back.Base() != victim.Base() || back.Len() != victim.Len() || back.Perms() != victim.Perms() {
		t.Fatalf("round trip changed cap: %v vs %v", back, victim)
	}
}

func TestSealRequiresAuthority(t *testing.T) {
	victim := NewRoot(0, 0x100, PermData)
	noauth := NewRoot(10, 100, PermData).SetAddr(42)
	if _, err := victim.Seal(noauth); !IsFault(err, FaultPermSeal) {
		t.Fatalf("seal without PermSeal: got %v, want permit-seal fault", err)
	}
	oob := NewRoot(10, 10, PermSeal).SetAddr(99)
	if _, err := victim.Seal(oob); !IsFault(err, FaultOType) {
		t.Fatalf("seal with out-of-bounds otype: got %v, want otype fault", err)
	}
	// An in-bounds cursor past 2^32 is out of otype range; it must not
	// alias the otype of its low 32 bits.
	high := NewRoot(1<<32, 64, PermSeal|PermUnseal).SetAddr(1<<32 + 5)
	if s, err := victim.Seal(high); !IsFault(err, FaultOType) {
		t.Fatalf("seal with cursor 2^32+5: got %v (otype %d), want otype fault", err, s.OType())
	}
}

func TestUnsealWrongOType(t *testing.T) {
	sealer := NewRoot(1, 1000, PermSeal|PermUnseal).SetAddr(42)
	other := NewRoot(1, 1000, PermSeal|PermUnseal).SetAddr(43)
	victim := NewRoot(0, 0x100, PermData)
	sealed, err := victim.Seal(sealer)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := sealed.Unseal(other); !IsFault(err, FaultOType) {
		t.Fatalf("unseal with wrong otype: got %v, want otype fault", err)
	}
	// An unsealer whose cursor is 2^32 plus the otype is another otype.
	five, err := victim.Seal(sealer.SetAddr(5))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	high := NewRoot(1<<32, 64, PermSeal|PermUnseal).SetAddr(1<<32 + 5)
	if _, err := five.Unseal(high); !IsFault(err, FaultOType) {
		t.Fatalf("unseal otype 5 with cursor 2^32+5: got %v, want otype fault", err)
	}
}

func TestBuildCap(t *testing.T) {
	auth := NewRoot(0x1000, 0x1000, PermData)
	// A candidate within authority is revalidated.
	cand := Cap{base: 0x1100, length: 0x100, addr: 0x1100, perms: PermLoad, otype: OTypeUnsealed}
	got, err := BuildCap(auth, cand)
	if err != nil {
		t.Fatalf("BuildCap: %v", err)
	}
	if !got.Tag() {
		t.Fatal("rebuilt cap must be tagged")
	}
	// A candidate exceeding authority bounds is rejected.
	wide := Cap{base: 0x0800, length: 0x100, otype: OTypeUnsealed}
	if _, err := BuildCap(auth, wide); !IsFault(err, FaultMonotonicity) {
		t.Fatalf("oob candidate: got %v, want monotonicity fault", err)
	}
	// A candidate with extra permissions is rejected.
	priv := Cap{base: 0x1000, length: 0x10, perms: PermSystem, otype: OTypeUnsealed}
	if _, err := BuildCap(auth, priv); !IsFault(err, FaultMonotonicity) {
		t.Fatalf("perm-widening candidate: got %v, want monotonicity fault", err)
	}
}

func TestFaultErrorText(t *testing.T) {
	c := NewRoot(0, 16, PermLoad)
	err := c.CheckStore(0, 4)
	if err == nil {
		t.Fatal("want fault")
	}
	msg := err.Error()
	if !strings.Contains(msg, "permit-store") {
		t.Fatalf("fault text %q lacks cause", msg)
	}
}

func TestPermString(t *testing.T) {
	if got := (PermLoad | PermStore).String(); got != "rw" {
		t.Fatalf("perm string = %q, want rw", got)
	}
	if got := Perm(0).String(); got != "-" {
		t.Fatalf("empty perm string = %q, want -", got)
	}
}

func TestCapStringMentionsState(t *testing.T) {
	c := NewRoot(0x10, 0x10, PermLoad)
	if s := c.String(); !strings.Contains(s, "0x10") {
		t.Fatalf("cap string %q lacks bounds", s)
	}
	if s := c.ClearTag().String(); !strings.Contains(s, "invalid") {
		t.Fatalf("untagged cap string %q lacks invalid marker", s)
	}
	sealer := NewRoot(1, 100, PermSeal).SetAddr(7)
	sc, err := c.Seal(sealer)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if s := sc.String(); !strings.Contains(s, "sealed") {
		t.Fatalf("sealed cap string %q lacks sealed marker", s)
	}
}

func TestIncAddrAndOffset(t *testing.T) {
	c := NewRoot(0x100, 0x100, PermData)
	c = c.IncAddr(0x20)
	if c.Addr() != 0x120 || c.Offset() != 0x20 {
		t.Fatalf("IncAddr wrong: %v", c)
	}
	// Negative delta via two's complement.
	c = c.IncAddr(^uint64(0)) // -1
	if c.Addr() != 0x11f {
		t.Fatalf("negative IncAddr wrong: %v", c)
	}
	// Out-of-bounds cursor is allowed until use.
	far := c.SetAddr(0x9999)
	if far.Addr() != 0x9999 {
		t.Fatalf("SetAddr wrong: %v", far)
	}
	if err := far.CheckLoad(far.Addr(), 1); !IsFault(err, FaultBounds) {
		t.Fatalf("use of oob cursor: got %v, want bounds fault", err)
	}
}
