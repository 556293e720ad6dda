package testbed

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// The three views application code can be handed, one contract.
var (
	_ fstack.API = (*fstack.Stack)(nil)
	_ fstack.API = (*fstack.ShardedAPI)(nil)
	_ fstack.API = (*GatedAPI)(nil)
)

// minimalSpec is a valid one-process, one-peer topology.
func minimalSpec() Spec {
	return Spec{
		Clk:     sim.NewVClock(),
		Machine: MachineSpec{Name: "morello", Ports: 2},
		Compartments: []CompartmentSpec{
			{Name: "proc", Ifs: []IfSpec{{Port: 0}}},
		},
		Peers: []PeerSpec{{Port: 0}},
	}
}

func wantBuildError(t *testing.T, spec Spec, fragment string) {
	t.Helper()
	_, err := Build(spec)
	if err == nil {
		t.Fatalf("spec built; want error containing %q", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestBuildMinimalSpec(t *testing.T) {
	bed, err := Build(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(bed.Envs) != 1 || len(bed.Peers) != 1 || len(bed.Links) != 1 {
		t.Fatalf("bed shape: %d envs, %d peers, %d links", len(bed.Envs), len(bed.Peers), len(bed.Links))
	}
	if bed.Links[0] != nil {
		t.Fatal("plain wire reported a netem link")
	}
	if got := len(bed.Loops()); got != 2 {
		t.Fatalf("loops: %d, want 2", got)
	}
	if bed.Envs[0].CapMode() {
		t.Fatal("baseline process reports capability mode")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	s := minimalSpec()
	s.Clk = nil
	wantBuildError(t, s, "clock")

	s = minimalSpec()
	s.Machine.Ports = 0
	wantBuildError(t, s, "port")

	s = minimalSpec()
	s.Compartments = nil
	wantBuildError(t, s, "no compartments")

	s = minimalSpec()
	s.Compartments[0].Ifs[0].Port = 7
	wantBuildError(t, s, "out of range")

	s = minimalSpec()
	s.Compartments[0].APIGate = true // gates need a cVM
	wantBuildError(t, s, "cVM")

	s = minimalSpec()
	s.Compartments[0].DeviceGate = true // so does the device-gate split
	wantBuildError(t, s, "cVM")

	s = minimalSpec()
	s.Compartments[0].AppCVMs = []string{"app"}
	wantBuildError(t, s, "APIGate")

	s = minimalSpec()
	s.Compartments[0].Stack.Shards = 2
	s.Compartments[0].Ifs = append(s.Compartments[0].Ifs, IfSpec{Port: 1})
	wantBuildError(t, s, "exactly one port")

	s = minimalSpec()
	s.Compartments[0].Stack.Shards = 9 // a port has 8 queue pairs
	wantBuildError(t, s, "9 shards")

	s = minimalSpec()
	s.Peers[0].Stack.Shards = 2
	wantBuildError(t, s, "peers never shard")

	s = minimalSpec()
	s.Compartments[0].CVM = true
	s.Compartments[0].DeviceGate = true
	s.Compartments[0].Ifs = nil
	wantBuildError(t, s, "exactly one port")

	s = minimalSpec()
	s.Compartments[0].CVM = true
	s.Compartments[0].DeviceGate = true
	s.Compartments[0].Ifs = append(s.Compartments[0].Ifs, IfSpec{Port: 1})
	wantBuildError(t, s, "exactly one port")

	// One card has one DMA regime: a cVM beside a process would leave one
	// of the two with a port that DMAs anywhere, or nowhere.
	s = minimalSpec()
	s.Compartments = append(s.Compartments, CompartmentSpec{Name: "cvm1", CVM: true, Ifs: []IfSpec{{Port: 1}}})
	wantBuildError(t, s, "compartment cvm1 and compartment proc mix")

	// A NIC fault must name a device and a queue the compartment has;
	// both used to index past the end inside Build.
	s = minimalSpec()
	s.Faults.NICFaults = []NICFaultSpec{{Env: "proc", Dev: 1, DMAFaultAt: 1, DMAFaults: 1}}
	wantBuildError(t, s, "device 1")

	s = minimalSpec()
	s.Faults.NICFaults = []NICFaultSpec{{Env: "proc", Queue: 1, StallAt: 1, ResumeAt: 2}}
	wantBuildError(t, s, "queue 1")

	s = minimalSpec()
	s.Compartments[0].Stack.Shards = 2
	s.Faults.NICFaults = []NICFaultSpec{{Env: "proc", Queue: 2, StallAt: 1, ResumeAt: 2}}
	wantBuildError(t, s, "queue 2")

	// An unknown congestion-control name is rejected at spec time, on
	// compartments and peers alike, instead of failing the first
	// connect mid-experiment.
	s = minimalSpec()
	s.Compartments[0].Stack.Tuning = &fstack.TCPTuning{Congestion: "vegas"}
	wantBuildError(t, s, "congestion")

	s = minimalSpec()
	s.Peers[0].Stack.Tuning = &fstack.TCPTuning{Congestion: "vegas"}
	wantBuildError(t, s, "congestion")

	// A rate is positive, or 0 for unset. A negative or NaN line rate
	// would pass cmp.Or into Build and price the line's bookings in
	// negative or undefined time; a negative CPU budget or link rate
	// would be silently "unset".
	s = minimalSpec()
	s.Machine.LineRateBps = -1e9
	wantBuildError(t, s, "machine morello: LineRateBps")

	s = minimalSpec()
	s.Machine.LineRateBps = math.NaN()
	wantBuildError(t, s, "machine morello: LineRateBps")

	s = minimalSpec()
	s.Compartments[0].Stack.Shards = 2
	s.Compartments[0].Stack.CPUBps = -1e9
	wantBuildError(t, s, "Stack.CPUBps")

	s = minimalSpec()
	s.Peers[0].Stack.CPUBps = -1e9
	wantBuildError(t, s, "ideal cores")

	s = minimalSpec()
	s.Peers[0].Link = SymmetricLink(netem.Config{RateBps: -100e6})
	wantBuildError(t, s, "Link.ToPeer.RateBps")

	s = minimalSpec()
	s.Peers[0].Link = &LinkSpec{ToLocal: netem.Config{RateBps: math.NaN()}}
	wantBuildError(t, s, "Link.ToLocal.RateBps")
}

// TestAddressCollisionsAreErrors pins the satellite: the centralized
// plan rejects overlapping port owners and duplicate names instead of
// silently wiring them.
func TestAddressCollisionsAreErrors(t *testing.T) {
	// Two compartments owning the same NIC port.
	s := minimalSpec()
	s.Compartments = append(s.Compartments, CompartmentSpec{Name: "proc2", Ifs: []IfSpec{{Port: 0}}})
	wantBuildError(t, s, "local port 0")

	// Two peers on one cable. (A spec cannot state an address any more, so
	// the IP and MAC collisions this table used to hold cannot be written.)
	s = minimalSpec()
	s.Peers = append(s.Peers, PeerSpec{Port: 0})
	wantBuildError(t, s, "share the cable")

	// A compartment taking a link partner's name.
	s = minimalSpec()
	s.Compartments[0].Name = "peer0"
	wantBuildError(t, s, "name")

	// Duplicate compartment/app names.
	s = minimalSpec()
	s.Compartments = append(s.Compartments, CompartmentSpec{Name: "proc", Ifs: []IfSpec{{Port: 1}}})
	wantBuildError(t, s, "name")

	// cVM names collide even when the compartment names differ.
	s = minimalSpec()
	s.Compartments[0].CVM = true
	s.Compartments[0].CVMName = "cvm1"
	s.Compartments = append(s.Compartments, CompartmentSpec{
		Name: "other", CVM: true, CVMName: "cvm1", Ifs: []IfSpec{{Port: 1}},
	})
	wantBuildError(t, s, "cvm1")
}

// TestSpecDefaultsResolve pins the fallback chain: zero-valued fields
// take the documented defaults, explicit fields win.
func TestSpecDefaultsResolve(t *testing.T) {
	bed, err := Build(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	env := bed.Envs[0]
	if env.Stk == nil || env.Sharded != nil || len(env.Stacks()) != 1 || env.Stacks()[0] != env.Stk {
		t.Fatal("plain compartment shape wrong")
	}
	// The default plan addressed both ends of the cable: a datagram from
	// the peer to LocalIP(0) arrives from PeerIP(0).
	local, peer := env.Stk, bed.Peers[0].Env.Stk
	lfd, _ := local.Socket(fstack.SockDgram)
	if errno := local.Bind(lfd, fstack.IPv4Addr{}, 53); errno != hostos.OK {
		t.Fatal(errno)
	}
	pfd, _ := peer.Socket(fstack.SockDgram)
	if _, errno := peer.SendTo(pfd, []byte("plan"), LocalIP(0), 53); errno != hostos.OK {
		t.Fatal(errno)
	}
	clk := bed.Clk.(*sim.VClock)
	buf := make([]byte, 16)
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("datagram to LocalIP(0) never arrived")
		}
		for _, l := range bed.Loops() {
			l.RunOnce()
		}
		clk.Advance(5000)
		if _, from, _, errno := local.RecvFrom(lfd, buf); errno == hostos.OK {
			if from != PeerIP(0) {
				t.Fatalf("datagram from %v, want %v", from, PeerIP(0))
			}
			break
		}
	}
	if mac := bed.Peers[0].Env.Devs[0].MAC(); mac[5] != defaultPeerMAC {
		t.Fatalf("peer MAC suffix %#02x, want %#02x", mac[5], defaultPeerMAC)
	}
}

// dmaProbe is TestCapabilityDMAConfinement's probe (internal/nic) on a
// built bed: local port 0's TX ring 0 reprogrammed to one 64-byte
// descriptor at descAddr, its buffer right behind it. It reports whether
// the device fetched and transmitted it.
func dmaProbe(t *testing.T, bed *Bed, descAddr uint64) bool {
	t.Helper()
	port := bed.Local.Card.Port(0)
	d, err := bed.Local.K.Mem.RawSlice(descAddr, nic.DescSize)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(d[0:8], descAddr+nic.DescSize)
	binary.LittleEndian.PutUint16(d[8:10], 64)
	d[11] = nic.TxCmdEOP
	sent := port.RegRead32(nic.RegGPTC)
	port.RegWrite32(nic.RegTDBALQ(0), uint32(descAddr))
	port.RegWrite32(nic.RegTDLENQ(0), 8*nic.DescSize)
	port.RegWrite32(nic.RegTDHQ(0), 0)
	port.RegWrite32(nic.RegTDTQ(0), 1)
	port.Step()
	return port.RegRead32(nic.RegGPTC) != sent
}

// TestCVMPortsDoCapabilityDMA: nothing in a spec asks for capability DMA
// and a cVM's port does it all the same — a descriptor in the cVM's own
// window but outside its DPDK segment is refused, one inside the segment
// goes out; a process's port fetches from anywhere.
func TestCVMPortsDoCapabilityDMA(t *testing.T) {
	s := minimalSpec()
	s.Compartments[0].CVM = true
	bed, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	env := bed.Envs[0]
	if dmaProbe(t, bed, env.CVM.Base()+0x1000) {
		t.Fatal("a cVM's port DMAed outside its segment")
	}
	inside, err := env.Seg.Alloc(0x1000, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if !dmaProbe(t, bed, inside) {
		t.Fatal("the probe moved nothing inside the segment either: it checks nothing")
	}

	bed, err = Build(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !dmaProbe(t, bed, 0x100) { // the kernel's null page
		t.Fatal("a process's port does raw DMA")
	}
}

// TestShardedSpecBuildsShardedEnv: the sharded path produces a
// ShardedStack with per-shard loops and exposes the multi-queue device.
func TestShardedSpecBuildsShardedEnv(t *testing.T) {
	s := Spec{
		Clk:     sim.NewVClock(),
		Machine: MachineSpec{Name: "morello", Ports: 1, LineRateBps: 4e9},
		Compartments: []CompartmentSpec{
			{
				Name: "mq", SegBytes: 16 << 20, PoolBufs: 3072,
				Ifs:   []IfSpec{{Port: 0}},
				Stack: StackSpec{Shards: 4, RingSize: 256, CPUBps: 1e9, RTOMinNS: 20e6},
			},
		},
		Peers: []PeerSpec{{Port: 0}},
	}
	bed, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if bed.Sharded == nil || bed.Dev == nil {
		t.Fatal("sharded bed missing Sharded/Dev")
	}
	if bed.Sharded.NumShards() != 4 || bed.Dev.NumRxQueues() != 4 {
		t.Fatalf("shards %d, queues %d, want 4/4", bed.Sharded.NumShards(), bed.Dev.NumRxQueues())
	}
	// 4 shard loops + 1 peer loop.
	if got := len(bed.Loops()); got != 5 {
		t.Fatalf("loops: %d, want 5", got)
	}
	for i, stk := range bed.Sharded.Shards() {
		if stk == nil {
			t.Fatalf("shard %d missing", i)
		}
	}
}

// TestTuningReachesBothEnds: a StackSpec with TCP tuning lands on the
// compartment's stack and the peer's: the local SYN and the peer's
// SYN-ACK both offer SACK and the spec's window-scale shift, which a
// stack sends only when its own tuning asks for them.
func TestTuningReachesBothEnds(t *testing.T) {
	tun := &fstack.TCPTuning{SACK: true, WindowScale: 5, SndBufBytes: 1 << 20, RcvBufBytes: 1 << 20}
	s := minimalSpec()
	s.Compartments[0].Stack.Tuning = tun
	s.Peers[0].Stack.Tuning = tun
	bed, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// synOpts maps "SYN" and "SYN-ACK" to the options each carried.
	synOpts := map[string][]byte{}
	tap := func(_ int64, frame []byte) {
		pkt := frame[fstack.EthHeaderLen:]
		ip, ihl, err := fstack.ParseIPv4Header(pkt)
		if err != nil || ip.Proto != fstack.ProtoTCP {
			return
		}
		seg := pkt[ihl:ip.TotalLen]
		if flags := seg[13]; flags&fstack.TCPSyn != 0 {
			kind := "SYN"
			if flags&fstack.TCPAck != 0 {
				kind = "SYN-ACK"
			}
			synOpts[kind] = seg[fstack.TCPHeaderLen : int(seg[12]>>4)*4]
		}
	}
	bed.Local.Card.Port(0).SetRxTap(tap)
	bed.Peers[0].M.Card.Port(0).SetRxTap(tap)
	local, peer := bed.Envs[0].Stk, bed.Peers[0].Env.Stk
	lfd, _ := peer.Socket(fstack.SockStream)
	if errno := peer.Bind(lfd, fstack.IPv4Addr{}, 80); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := peer.Listen(lfd, 1); errno != hostos.OK {
		t.Fatal(errno)
	}
	cfd, _ := local.Socket(fstack.SockStream)
	if errno := local.Connect(cfd, PeerIP(0), 80); errno != hostos.OK && errno != hostos.EINPROGRESS {
		t.Fatal(errno)
	}
	clk := bed.Clk.(*sim.VClock)
	for i := 0; i < 1000 && len(synOpts) < 2; i++ {
		for _, l := range bed.Loops() {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	for _, kind := range []string{"SYN", "SYN-ACK"} {
		opts := synOpts[kind]
		sack, wscale := false, -1
		for len(opts) > 0 && opts[0] != 0 {
			if opts[0] == 1 || len(opts) < 2 { // NOP
				opts = opts[1:]
				continue
			}
			switch opts[0] {
			case 3:
				wscale = int(opts[2])
			case 4:
				sack = true
			}
			opts = opts[max(int(opts[1]), 2):]
		}
		if !sack || wscale != 5 {
			t.Fatalf("%s options %x: SACK-permitted %v, window scale %d; want true, 5", kind, synOpts[kind], sack, wscale)
		}
	}
}
