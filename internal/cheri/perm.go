package cheri

import "strings"

// Perm is a bit set of capability permissions. The set follows the
// Morello/CHERI ISA permission model (a subset sufficient for the
// network-stack case study).
type Perm uint16

const (
	// PermLoad allows data loads through the capability.
	PermLoad Perm = 1 << iota
	// PermStore allows data stores through the capability.
	PermStore
	// PermExecute allows instruction fetch (PCC-class capabilities).
	PermExecute
	// PermLoadCap allows loading valid capabilities.
	PermLoadCap
	// PermStoreCap allows storing valid capabilities.
	PermStoreCap
	// PermSeal allows sealing other capabilities with this one's otype
	// range.
	PermSeal
	// PermUnseal allows unsealing capabilities sealed within this one's
	// otype range.
	PermUnseal
	// PermInvoke allows the capability to be used with CInvoke (the
	// sealed-entry domain-crossing instruction, blrs on Morello).
	PermInvoke
	// PermGlobal marks a capability that may be stored anywhere; non-global
	// capabilities may only be stored through PermStoreLocalCap.
	PermGlobal
	// PermStoreLocalCap allows storing non-global capabilities.
	PermStoreLocalCap
	// PermSystem grants access to system registers (the Intravisor's
	// privilege; cVMs never hold it — that is why they cannot read the
	// hardware timers directly, §IV of the paper).
	PermSystem
)

// PermAll is every permission bit; only root capabilities carry it.
const PermAll = PermLoad | PermStore | PermExecute | PermLoadCap |
	PermStoreCap | PermSeal | PermUnseal | PermInvoke | PermGlobal |
	PermStoreLocalCap | PermSystem

// PermData is the usual working set for a data capability.
const PermData = PermLoad | PermStore | PermLoadCap | PermStoreCap |
	PermGlobal | PermStoreLocalCap

// PermCode is the usual working set for a code (PCC) capability.
const PermCode = PermLoad | PermExecute | PermGlobal

var permNames = []struct {
	bit  Perm
	name string
}{
	{PermLoad, "r"},
	{PermStore, "w"},
	{PermExecute, "x"},
	{PermLoadCap, "R"},
	{PermStoreCap, "W"},
	{PermSeal, "s"},
	{PermUnseal, "u"},
	{PermInvoke, "i"},
	{PermGlobal, "g"},
	{PermStoreLocalCap, "l"},
	{PermSystem, "S"},
}

// String renders the permission set in a compact rwxRWsuiglS form.
func (p Perm) String() string {
	if p == 0 {
		return "-"
	}
	var b strings.Builder
	for _, pn := range permNames {
		if p&pn.bit != 0 {
			b.WriteString(pn.name)
		}
	}
	return b.String()
}

// Has reports whether every bit in q is present in p.
func (p Perm) Has(q Perm) bool { return p&q == q }
