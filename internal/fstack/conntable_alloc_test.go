//go:build !race

package fstack

import "testing"

// TestConnTableChurnZeroAllocs pins the tuple table's steady state: once
// it has grown to hold a population, filing and deleting connections
// within it — a churn of short flows over held ones — allocates nothing.
func TestConnTableChurnZeroAllocs(t *testing.T) {
	var tab connTable
	conns := make([]tcpConn, 2048)
	for i := range conns {
		conns[i].tuple = fourTuple{
			local:  tcpEndpoint{IP: IP4(10, 0, 0, 1), Port: 8080},
			remote: tcpEndpoint{IP: IP4(10, 0, 0, 2), Port: uint16(40000 + i)},
		}
		tab.add(&conns[i])
	}
	for i := range conns[1024:] {
		tab.del(&conns[1024+i])
	}
	size := len(tab.slots)
	allocs := testing.AllocsPerRun(50, func() {
		for i := range conns[1024:] {
			tab.add(&conns[1024+i])
		}
		if c := tab.get(conns[2047].tuple); c != &conns[2047] {
			t.Fatal("the last filed connection is not found")
		}
		for i := range conns[1024:] {
			tab.del(&conns[1024+i])
		}
	})
	if allocs != 0 || len(tab.slots) != size || tab.n != 1024 {
		t.Fatalf("a warm insert/delete cycle allocates %.1f, slots %d → %d, %d held; want 0 allocs, no growth, 1024",
			allocs, size, len(tab.slots), tab.n)
	}
}
