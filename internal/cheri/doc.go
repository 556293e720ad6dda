// Package cheri implements a software model of the CHERI capability
// architecture sufficient to reproduce the compartmentalization behaviour
// evaluated in "Enabling Security on the Edge: A CHERI Compartmentalized
// Network Stack" (DATE 2025).
//
// The model provides:
//
//   - Cap: a 128-bit-style capability carrying base, length, cursor
//     (address), permissions, an object type for sealing, and a validity
//     tag. Derivation is monotonic: a derived capability can never carry
//     more rights or wider bounds than its parent.
//   - TMem: byte-addressable memory behind capability checks, in 2 MiB
//     hugepages backed on first touch; a view of it lies inside one
//     hugepage. It holds data bytes only: a capability is a value code holds (a cVM's DDC, an
//     entry pair, a gate argument, a DMA grant) and is never stored into
//     memory, so no written bit pattern can come back as one. A tagged
//     capability comes only from NewRoot, a monotone derivation, or
//     BuildCap against an authority, which keeps its seal.
//   - EntryPair: a sealed (code, data) pair, and CInvoke, the blrs-style
//     check a trampoline or gate makes of it on every domain crossing.
//
// Faults mirror CHERI exception causes (tag, seal, permission, bounds,
// monotonicity violations) and are reported as *Fault errors rather than
// hardware traps; the scenario layer turns them into compartment
// exceptions (paper Fig. 3).
//
// A use check (Cap.CheckFetch and every TMem access and checked slice)
// costs the host what it costs the hardware: its success path is one
// inlined predicate, a straight chain of compares on the capability's
// fields, and nothing is built unless it fails. The fault is then
// re-derived out of line, and which fault an access gets
// is a contract: tag, then seal, then the load permission and the
// bounds (for an access that loads), then the store permission and the
// bounds (for one that stores), then physical memory — the first that
// fails names the fault, with the capability, address and size of the
// access. A checked read-write slice therefore reports a missing store
// permission only for a range the capability bounds. The checks as they
// were before the split are the test reference (check_test.go,
// FuzzCapCheck).
//
// The model is deliberately uncompressed (no CHERI Concentrate encoding):
// bounds are exact. Bounds and permission checks, sealing and
// permission monotonicity match the architectural behaviour that the
// paper's evaluation depends on.
package cheri
