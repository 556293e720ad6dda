package nic

// MMIO register offsets (82576 layout, BAR0).
const (
	RegCTRL   = 0x0000
	RegSTATUS = 0x0008
	RegRCTL   = 0x0100
	RegTCTL   = 0x0400

	// Statistics (read-only; clear-on-read is NOT modelled).
	RegMPC   = 0x4010 // missed packets (RX ring full)
	RegGPRC  = 0x4074 // good packets received
	RegGPTC  = 0x4080 // good packets transmitted
	RegGORCL = 0x4088 // good octets received, low
	RegGORCH = 0x408C // good octets received, high
	RegGOTCL = 0x4090 // good octets transmitted, low
	RegGOTCH = 0x4094 // good octets transmitted, high

	// Receive-address registers (MAC address of the port).
	RegRAL0 = 0x5400
	RegRAH0 = 0x5404

	// Multiple receive queues command (RSS enable + queue count).
	RegMRQC = 0x5818
	// RSS redirection table: 32 dwords of four 1-byte queue entries.
	RegRETA = 0x5C00
	// RSS random key: 10 dwords (40 bytes).
	RegRSSRK = 0x5C80
)

// MRQC fields. The queue-count field is a simulation convenience (the
// real device derives it from RCTL/PSRTYPE); software writes the number
// of RX queues RSS may select from.
const (
	MRQCEnable     = 1 << 0
	MRQCQueueShift = 8
)

// Per-queue register banks (82576-style): the descriptor-ring registers
// of every RX/TX queue pair, queue 0 included.
const (
	RegRXQBase = 0xC000
	RegTXQBase = 0xE000
	RegQStride = 0x40

	regQBAL = 0x00
	regQBAH = 0x04
	regQLEN = 0x08
	regQH   = 0x10
	regQT   = 0x18
)

// RegRDBALQ returns the RX descriptor base-low register of queue q.
func RegRDBALQ(q int) uint64 { return RegRXQBase + uint64(q)*RegQStride + regQBAL }

// RegRDBAHQ returns the RX descriptor base-high register of queue q.
func RegRDBAHQ(q int) uint64 { return RegRXQBase + uint64(q)*RegQStride + regQBAH }

// RegRDLENQ returns the RX ring length register of queue q.
func RegRDLENQ(q int) uint64 { return RegRXQBase + uint64(q)*RegQStride + regQLEN }

// RegRDHQ returns the RX head register of queue q.
func RegRDHQ(q int) uint64 { return RegRXQBase + uint64(q)*RegQStride + regQH }

// RegRDTQ returns the RX tail register of queue q.
func RegRDTQ(q int) uint64 { return RegRXQBase + uint64(q)*RegQStride + regQT }

// RegTDBALQ returns the TX descriptor base-low register of queue q.
func RegTDBALQ(q int) uint64 { return RegTXQBase + uint64(q)*RegQStride + regQBAL }

// RegTDBAHQ returns the TX descriptor base-high register of queue q.
func RegTDBAHQ(q int) uint64 { return RegTXQBase + uint64(q)*RegQStride + regQBAH }

// RegTDLENQ returns the TX ring length register of queue q.
func RegTDLENQ(q int) uint64 { return RegTXQBase + uint64(q)*RegQStride + regQLEN }

// RegTDHQ returns the TX head register of queue q.
func RegTDHQ(q int) uint64 { return RegTXQBase + uint64(q)*RegQStride + regQH }

// RegTDTQ returns the TX tail register of queue q.
func RegTDTQ(q int) uint64 { return RegTXQBase + uint64(q)*RegQStride + regQT }

// CTRL bits.
const (
	CtrlRST = 1 << 26 // device reset
)

// STATUS bits.
const (
	StatusLU = 1 << 1 // link up
)

// RCTL/TCTL bits.
const (
	RctlEN = 1 << 1
	TctlEN = 1 << 1
)

// Descriptor layout constants (legacy descriptors).
const (
	// DescSize is the size of one RX or TX descriptor.
	DescSize = 16

	// TX command bits.
	TxCmdEOP = 1 << 0 // end of packet
	TxCmdIC  = 1 << 2 // insert checksum: sum [CSS, end) into the field at CSO
	TxCmdRS  = 1 << 3 // report status (write DD back)

	// TX descriptor bytes of the checksum engine (CMD.IC).
	TxDescCSO = 10 // checksum offset: where the sum goes
	TxDescCSS = 13 // checksum start: where summing begins

	// Status bits (both rings).
	StatDD  = 1 << 0 // descriptor done
	StatEOP = 1 << 1 // end of packet (RX)

	// RX status and error bits of the transport checksum: TCPCS says
	// the device checked it, TCPE that it was wrong. TCPCS clear means
	// not checked.
	RxStatTCPCS = 1 << 5
	RxErrTCPE   = 1 << 5
)
