package cheri

import "fmt"

// FaultKind enumerates CHERI exception causes.
type FaultKind int

const (
	// FaultNone is the zero value; it never appears in a returned Fault.
	FaultNone FaultKind = iota
	// FaultTag: the capability's validity tag is clear.
	FaultTag
	// FaultSeal: a sealed capability was used for memory access, or
	// seal/unseal preconditions failed.
	FaultSeal
	// FaultBounds: the access lies outside [base, base+length). This is
	// the "Capability Out-of-Bounds exception" of paper Fig. 3.
	FaultBounds
	// FaultPermLoad: load attempted without PermLoad.
	FaultPermLoad
	// FaultPermStore: store attempted without PermStore.
	FaultPermStore
	// FaultPermExecute: fetch attempted without PermExecute.
	FaultPermExecute
	// FaultPermSeal: seal attempted without PermSeal on the sealer.
	FaultPermSeal
	// FaultPermUnseal: unseal attempted without PermUnseal on the unsealer.
	FaultPermUnseal
	// FaultPermInvoke: CInvoke attempted on a capability without PermInvoke.
	FaultPermInvoke
	// FaultPermSystem: system-register access without PermSystem.
	FaultPermSystem
	// FaultMonotonicity: a derivation tried to widen bounds or add
	// permissions.
	FaultMonotonicity
	// FaultOType: seal/unseal object-type mismatch or otype out of range.
	FaultOType
)

var faultNames = map[FaultKind]string{
	FaultTag:          "tag violation",
	FaultSeal:         "seal violation",
	FaultBounds:       "capability out-of-bounds",
	FaultPermLoad:     "permit-load violation",
	FaultPermStore:    "permit-store violation",
	FaultPermExecute:  "permit-execute violation",
	FaultPermSeal:     "permit-seal violation",
	FaultPermUnseal:   "permit-unseal violation",
	FaultPermInvoke:   "permit-invoke violation",
	FaultPermSystem:   "permit-system-registers violation",
	FaultMonotonicity: "monotonicity violation",
	FaultOType:        "object-type violation",
}

// String returns the architectural name of the fault kind.
func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is a CHERI capability exception. It satisfies error so the model
// can report violations without panicking; the scenario layer converts
// faults raised inside a compartment into compartment traps.
type Fault struct {
	Kind FaultKind
	// Cap is the offending capability (as it was when the fault occurred).
	Cap Cap
	// Addr is the faulting address, when the fault relates to a memory
	// access; zero otherwise.
	Addr uint64
	// Size is the access size in bytes, when applicable.
	Size int
	// Op names the operation that faulted ("load", "store", "setbounds",
	// "seal", ...).
	Op string
}

// Error renders the fault like a CheriBSD SIGPROT report.
func (f *Fault) Error() string {
	if f.Size > 0 {
		return fmt.Sprintf("CHERI %s: %s addr=%#x size=%d cap=%v",
			f.Kind, f.Op, f.Addr, f.Size, f.Cap)
	}
	return fmt.Sprintf("CHERI %s: %s cap=%v", f.Kind, f.Op, f.Cap)
}

func newFault(kind FaultKind, op string, c Cap, addr uint64, size int) *Fault {
	return &Fault{Kind: kind, Cap: c, Addr: addr, Size: size, Op: op}
}

// IsFault reports whether err is a *Fault of the given kind.
func IsFault(err error, kind FaultKind) bool {
	f, ok := err.(*Fault)
	return ok && f.Kind == kind
}
