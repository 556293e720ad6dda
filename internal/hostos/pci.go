package hostos

import "fmt"

// PCIDevice is the device side of the PCI registry. The simulated Intel
// 82576 NIC implements it; DPDK's poll-mode driver talks to it through
// the register interface after unbinding the kernel driver.
type PCIDevice interface {
	// BDF returns the bus/device/function address ("0000:03:00.0").
	BDF() string
	// VendorID and DeviceID identify the silicon (0x8086/0x10C9 for the
	// 82576).
	VendorID() uint16
	DeviceID() uint16
	// RegRead32 and RegWrite32 access the device register block (BAR0).
	RegRead32(off uint64) uint32
	RegWrite32(off uint64, v uint32)
}

type pciSlot struct {
	dev         PCIDevice
	kernelBound bool
}

// PCI is the host's PCI registry: device discovery, kernel-driver
// binding state, and user-space pass-through.
type PCI struct {
	slots map[string]*pciSlot
}

// NewPCI creates an empty registry.
func NewPCI() *PCI { return &PCI{slots: make(map[string]*pciSlot)} }

// Register adds a device; it starts bound to the kernel driver, like a
// NIC owned by the in-kernel network stack at boot.
func (p *PCI) Register(dev PCIDevice) error {
	if _, dup := p.slots[dev.BDF()]; dup {
		return fmt.Errorf("hostos: PCI device %s already registered", dev.BDF())
	}
	p.slots[dev.BDF()] = &pciSlot{dev: dev, kernelBound: true}
	return nil
}

// Unbind detaches the kernel driver from the device so user space can
// claim it (DPDK's igb_uio/nic_uio step, §II-C).
func (p *PCI) Unbind(bdf string) Errno {
	s, ok := p.slots[bdf]
	if !ok {
		return ENOENT
	}
	if !s.kernelBound {
		return EBUSY
	}
	s.kernelBound = false
	return OK
}

// Claim returns the pass-through handle for an unbound device.
func (p *PCI) Claim(bdf string) (PCIDevice, Errno) {
	s, ok := p.slots[bdf]
	if !ok {
		return nil, ENOENT
	}
	if s.kernelBound {
		return nil, EBUSY
	}
	return s.dev, OK
}
