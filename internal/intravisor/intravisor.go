package intravisor

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/obs"
)

// Intravisor manages cVMs on one host kernel. It holds the memory root
// capability (received at boot) and the sealing authority from which all
// entry pairs are derived.
type Intravisor struct {
	K *hostos.Kernel

	root    cheri.Cap // full-memory root (Intravisor privilege)
	sealer  cheri.Cap // sealing authority, cursor selects otype
	codeCap cheri.Cap // executable window for entry points

	cvms      map[string]*CVM
	nextOType uint64
	nextID    int

	// Crossings counts completed domain crossings (trampolines + gates).
	Crossings atomic.Uint64

	// Flight-recorder hook (nil = observability off). The Intravisor is
	// clockless, so the wiring supplies virtual time.
	obsTr  *obs.Trace
	obsNow func() int64
}

// SetTrace attaches a flight recorder to the gate path; now supplies
// virtual time. Call before traffic.
func (iv *Intravisor) SetTrace(tr *obs.Trace, now func() int64) {
	iv.obsTr, iv.obsNow = tr, now
}

// CodeWindow is the size of the synthetic executable region entry points
// live in, reserved from the kernel's pages by New: a machine that will
// host an Intravisor needs this much memory beyond its cVM windows. The
// model does not interpret instructions; the window exists so PCC
// capabilities have real bounds.
const CodeWindow = 1 << 20

// New boots an Intravisor on the kernel. It mints the memory root, a
// sealing root, and the executable window for entry points.
func New(k *hostos.Kernel) (*Intravisor, error) {
	codeBase, errno := k.Pages.Alloc(CodeWindow)
	if errno != hostos.OK {
		return nil, fmt.Errorf("intravisor: allocating code window: %v", errno)
	}
	root := k.Mem.Root()
	// The sealing root is minted on its own, not derived from the memory
	// root: otype space is not memory, and a derivation over
	// [OTypeFirst, OTypeLast] is a monotonicity violation on any machine
	// with less than 16 MiB.
	sealer := cheri.NewRoot(uint64(cheri.OTypeFirst), uint64(cheri.OTypeLast), cheri.PermSeal|cheri.PermUnseal)
	codeCap, err := root.SetAddr(codeBase).SetBounds(CodeWindow)
	if err != nil {
		return nil, err
	}
	codeCap, err = codeCap.AndPerms(cheri.PermCode | cheri.PermInvoke)
	if err != nil {
		return nil, err
	}
	return &Intravisor{
		K:         k,
		root:      root,
		sealer:    sealer,
		codeCap:   codeCap,
		cvms:      make(map[string]*CVM),
		nextOType: uint64(cheri.OTypeFirst),
	}, nil
}

// allocOType reserves a fresh object type.
func (iv *Intravisor) allocOType() uint64 {
	ot := iv.nextOType
	iv.nextOType++
	return ot
}

// sealPair builds a sealed entry pair targeting the given data window
// with a fresh otype.
func (iv *Intravisor) sealPair(data cheri.Cap) (cheri.EntryPair, error) {
	if !data.Perms().Has(cheri.PermInvoke) {
		// Re-derive over the same window with PermInvoke added; the
		// Intravisor has the authority (monotone w.r.t. the root).
		d, err := iv.root.SetAddr(data.Base()).SetBounds(data.Len())
		if err != nil {
			return cheri.EntryPair{}, err
		}
		d, err = d.AndPerms(data.Perms() | cheri.PermInvoke)
		if err != nil {
			return cheri.EntryPair{}, err
		}
		data = d
	}
	ot := iv.allocOType()
	return cheri.SealEntryPair(iv.codeCap, data, iv.sealer.SetAddr(ot))
}

// CreateCVM allocates a memory window of size bytes and constructs an
// isolated cVM around it. The cVM receives a DDC confined to its window
// (without system, seal or unseal rights) and a sealed entry pair into
// the Intravisor for syscall proxying.
func (iv *Intravisor) CreateCVM(name string, size uint64) (*CVM, error) {
	if _, dup := iv.cvms[name]; dup {
		return nil, fmt.Errorf("intravisor: cVM %q already exists", name)
	}
	base, errno := iv.K.Pages.Alloc(size)
	if errno != hostos.OK {
		return nil, fmt.Errorf("intravisor: allocating %d bytes for cVM %q: %v", size, name, errno)
	}
	ddc, err := iv.root.SetAddr(base).SetBounds(size)
	if err != nil {
		return nil, err
	}
	ddc, err = ddc.AndPerms(cheri.PermData)
	if err != nil {
		return nil, err
	}
	// Entry pair into the Intravisor: the data half covers all memory
	// (the Intravisor "has access to all cVM memory regions", §II-B).
	ivData, err := iv.root.AndPerms(cheri.PermData | cheri.PermInvoke | cheri.PermSystem)
	if err != nil {
		return nil, err
	}
	entry, err := iv.sealPair(ivData)
	if err != nil {
		return nil, err
	}
	c := &CVM{
		Name:  name,
		ID:    iv.nextID,
		iv:    iv,
		base:  base,
		size:  size,
		ddc:   ddc,
		entry: entry,
		state: StateCreated,
	}
	c.ctx.DDC = ddc
	pcc, err := iv.codeCap.AndPerms(cheri.PermCode)
	if err != nil {
		return nil, err
	}
	c.ctx.PCC = pcc
	iv.nextID++
	iv.cvms[name] = c
	return c, nil
}

// CVMs returns the cVMs by name.
func (iv *Intravisor) CVMs() map[string]*CVM {
	out := make(map[string]*CVM, len(iv.cvms))
	for k, v := range iv.cvms {
		out[k] = v
	}
	return out
}

// Mem returns the machine's memory (Intravisor privilege).
func (iv *Intravisor) Mem() *cheri.TMem { return iv.K.Mem }

// Root returns the Intravisor's memory root capability. Only the
// scenario builder uses it, to hand device queues their DMA windows.
func (iv *Intravisor) Root() cheri.Cap { return iv.root }
