package cheri

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// capGen produces random—but tagged and unsealed—capabilities inside a
// 1 MiB arena for property tests.
type capGen Cap

func (capGen) Generate(r *rand.Rand, _ int) reflect.Value {
	const arena = 1 << 20
	base := uint64(r.Intn(arena / 2))
	length := uint64(r.Intn(arena/2-1) + 1)
	c := NewRoot(base, length, Perm(r.Intn(int(PermAll+1))))
	c = c.SetAddr(base + uint64(r.Int63())%length)
	return reflect.ValueOf(capGen(c))
}

var quickCfg = &quick.Config{MaxCount: 400}

// Property: SetBounds never widens — every derived capability's range is
// contained in the parent's and its permissions are identical.
func TestQuickSetBoundsMonotone(t *testing.T) {
	f := func(g capGen, lenSeed uint16) bool {
		parent := Cap(g)
		sub, err := parent.SetBounds(uint64(lenSeed))
		if err != nil {
			// Faults are allowed; widening successes are not.
			return true
		}
		return sub.Base() >= parent.Base() &&
			sub.Top() <= parent.Top() &&
			sub.Perms() == parent.Perms() &&
			sub.Tag()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AndPerms only removes permissions.
func TestQuickAndPermsMonotone(t *testing.T) {
	f := func(g capGen, mask uint16) bool {
		parent := Cap(g)
		sub, err := parent.AndPerms(Perm(mask))
		if err != nil {
			return true
		}
		return sub.Perms()&^parent.Perms() == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: chains of arbitrary derivations never escape the original
// bounds or gain permissions.
func TestQuickDerivationChainsMonotone(t *testing.T) {
	f := func(g capGen, steps []uint32) bool {
		orig := Cap(g)
		c := orig
		for _, s := range steps {
			switch s % 3 {
			case 0:
				if d, err := c.SetAddr(c.Base() + uint64(s)%maxU64(c.Len(), 1)).SetBounds(uint64(s % 4096)); err == nil {
					c = d
				}
			case 1:
				if d, err := c.AndPerms(Perm(s)); err == nil {
					c = d
				}
			case 2:
				c = c.SetAddr(c.Addr() + uint64(s%64))
			}
		}
		return c.Base() >= orig.Base() &&
			c.Top() <= orig.Top() &&
			c.Perms()&^orig.Perms() == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Property: an access either passes CheckLoad or faults — and it passes
// exactly when it is inside bounds with a load permission and a tag.
func TestQuickCheckLoadComplete(t *testing.T) {
	f := func(g capGen, off uint32, n uint8) bool {
		c := Cap(g)
		addr := c.Base() + uint64(off)%(2*c.Len())
		size := int(n%64) + 1
		err := c.CheckLoad(addr, size)
		shouldPass := c.Tag() && !c.Sealed() && c.Perms().Has(PermLoad) && c.InBounds(addr, size)
		return (err == nil) == shouldPass
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: sealing is the identity on bounds, cursor and permissions,
// and CInvoke — the model's one unsealing path — admits a sealed pair
// exactly when its code half, unsealed, fetches at its cursor.
func TestQuickSealUnsealIdentity(t *testing.T) {
	sealRoot := NewRoot(uint64(OTypeFirst), 1<<16, PermSeal|PermUnseal)
	data := NewRoot(0, 0x100, PermData|PermInvoke)
	f := func(g capGen, otSeed uint16) bool {
		c := Cap(g)
		sealer := sealRoot.SetAddr(uint64(OTypeFirst) + uint64(otSeed))
		pair, err := SealEntryPair(c, data, sealer)
		if err != nil {
			return true
		}
		sealed := pair.Code
		return sealed.Base() == c.Base() && sealed.Len() == c.Len() &&
			sealed.Addr() == c.Addr() && sealed.Perms() == c.Perms() && sealed.Sealed() &&
			(CInvoke(pair) == nil) == (c.CheckFetch(c.Addr()) == nil)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// Property: memory round-trips arbitrary data through any in-bounds
// capability window.
func TestQuickTMemRoundTrip(t *testing.T) {
	m := NewTMem(1 << 16)
	root := m.Root()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 || len(data) > 1024 {
			return true
		}
		addr := uint64(off) % (m.Size() - uint64(len(data)))
		c, err := root.SetAddr(addr).SetBounds(uint64(len(data)))
		if err != nil {
			return false
		}
		if err := m.Store(c, addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.Load(c, addr, got); err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
