package netem_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/nic"
)

// station is one NIC port driven register-by-register, the way a
// poll-mode driver does: a TX and an RX descriptor ring in host memory,
// frames queued by writing a descriptor and bumping TDT, arrivals
// harvested by reading descriptor status and returning the slot via RDT.
type station struct {
	port   *nic.Port
	mem    *cheri.TMem
	txDesc uint64
	txBuf  uint64
	rxDesc uint64
	rxNext uint32
}

const (
	stationRing = 64
	stationBuf  = 2048
)

func newStation(t *testing.T, clk hostos.Clock, mem *cheri.TMem, bdf string, mac byte, base uint64) *station {
	t.Helper()
	card, err := nic.New(nic.Config{BDFBase: bdf, Ports: 1, LineRateBps: 1e9, MAC: [6]byte{2, 0, 0, 0, 0, mac}, Clk: clk, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	s := &station{port: card.Port(0), mem: mem}
	s.txDesc = base
	s.txBuf = s.txDesc + stationRing*nic.DescSize
	s.rxDesc = s.txBuf + stationRing*stationBuf
	rxBuf := s.rxDesc + stationRing*nic.DescSize
	for i := uint64(0); i < stationRing; i++ {
		binary.LittleEndian.PutUint64(s.slice(t, s.rxDesc+i*nic.DescSize, nic.DescSize), rxBuf+i*stationBuf)
	}
	p := s.port
	p.RegWrite32(nic.RegTDBALQ(0), uint32(s.txDesc))
	p.RegWrite32(nic.RegTDLENQ(0), stationRing*nic.DescSize)
	p.RegWrite32(nic.RegRDBALQ(0), uint32(s.rxDesc))
	p.RegWrite32(nic.RegRDLENQ(0), stationRing*nic.DescSize)
	p.RegWrite32(nic.RegRDTQ(0), stationRing-1)
	p.RegWrite32(nic.RegRCTL, nic.RctlEN)
	p.RegWrite32(nic.RegTCTL, nic.TctlEN)
	return s
}

func (s *station) slice(t *testing.T, addr uint64, n int) []byte {
	t.Helper()
	b, err := s.mem.RawSlice(addr, n)
	if err != nil {
		t.Error(err)
	}
	return b
}

// queue programs one frame carrying idx if the TX ring has a free slot.
func (s *station) queue(t *testing.T, idx uint32) bool {
	tdt := s.port.RegRead32(nic.RegTDTQ(0))
	if (tdt+1)%stationRing == s.port.RegRead32(nic.RegTDHQ(0)) {
		return false
	}
	buf := s.txBuf + uint64(tdt)*stationBuf
	binary.BigEndian.PutUint32(s.slice(t, buf, 64), idx)
	d := s.slice(t, s.txDesc+uint64(tdt)*nic.DescSize, nic.DescSize)
	binary.LittleEndian.PutUint64(d[0:8], buf)
	binary.LittleEndian.PutUint16(d[8:10], 64)
	d[11], d[12] = nic.TxCmdEOP|nic.TxCmdRS, 0
	s.port.RegWrite32(nic.RegTDTQ(0), (tdt+1)%stationRing)
	return true
}

// harvest records the indices of newly arrived frames in seen and
// returns how many there were.
func (s *station) harvest(t *testing.T, seen []int) (n int) {
	for ; ; n++ {
		d := s.slice(t, s.rxDesc+uint64(s.rxNext)*nic.DescSize, nic.DescSize)
		if d[12]&nic.StatDD == 0 {
			return n
		}
		buf := s.slice(t, binary.LittleEndian.Uint64(d[0:8]), 64)
		if idx := binary.BigEndian.Uint32(buf); int(idx) < len(seen) {
			seen[idx]++
		} else {
			t.Errorf("harvested frame with index %d out of range", idx)
		}
		d[12] = 0
		s.port.RegWrite32(nic.RegRDTQ(0), s.rxNext)
		s.rxNext = (s.rxNext + 1) % stationRing
	}
}

// TestTwoGoroutinesStepOneLink is the mode the link's locks and atomic
// mirrors exist for: real clock, each port of one impaired link stepped
// from its own goroutine, both transmitting. Every Step pumps both
// directions of the shared link, so Pump's lock-free "nothing due" path
// races the other side's enqueue and release all the time. Run under
// -race; the assertion is conservation: the link delivers every frame,
// and each one is either harvested exactly once or counted by the
// receiver's FIFO as a tail drop (a line-rate sender can outrun a
// receiver goroutine, as it can a real driver). Concurrent releases may
// interleave, so order is not asserted.
func TestTwoGoroutinesStepOneLink(t *testing.T) {
	clk := hostos.NewRealClock()
	mem := cheri.NewTMem(1 << 20)
	a := newStation(t, clk, mem, "0000:03:00", 1, 0x1000)
	b := newStation(t, clk, mem, "0000:04:00", 2, 0x80000)
	l := netem.Connect(clk, a.port, b.port, netem.Config{Seed: 9, DelayNS: 20_000, JitterNS: 10_000})

	const n = 3000
	deadline := time.Now().Add(30 * time.Second)
	var arrived [2][]int // arrived[i][k]: times station i received frame k
	var wg sync.WaitGroup
	for i, s := range []*station{a, b} {
		arrived[i] = make([]int, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent, got := uint32(0), 0
			flushed := func() bool { return sent == n && s.port.RegRead32(nic.RegTDHQ(0)) == s.port.RegRead32(nic.RegTDTQ(0)) }
			for !(flushed() && got+int(s.port.Missed()) == n) && time.Now().Before(deadline) {
				if sent < n && s.queue(t, sent) {
					sent++
				}
				s.port.Step()
				got += s.harvest(t, arrived[i])
			}
		}()
	}
	wg.Wait()
	for i, s := range []*station{a, b} {
		got := 0
		for k, c := range arrived[i] {
			if c > 1 {
				t.Fatalf("station %d received frame %d %d times", i, k, c)
			}
			got += c
		}
		if missed := int(s.port.Missed()); got+missed != n || got == 0 {
			t.Fatalf("station %d: %d harvested + %d tail-dropped, want %d in all", i, got, missed, n)
		}
	}
	for dir := 0; dir < 2; dir++ {
		if st := l.Stats(dir); st.Sent != n || st.Delivered != n || st.Lost() != 0 {
			t.Fatalf("direction %d: %v", dir, st)
		}
	}
}
