package testbed

import (
	"fmt"

	"repro/internal/fstack"
)

// The testbed addressing plan, centralized here so no scenario needs
// its own copy, and no spec can state an address: NIC port i uses subnet
// 10.0.i.0/24 with .1 on the local box and .2 on the link partner
// "peer<i>"; interfaces are eth<port>; MACs are 02:82:57:60:00:XX with
// XX = 0x01 for the local card and 0x80+port for peers. What a spec can
// still get wrong — two owners of one port, two peers on one cable — is
// a Build error naming both claimants.

// Mask24 is the /24 netmask used throughout the testbed.
var Mask24 = fstack.IP4(255, 255, 255, 0)

// LocalIP is the local box's address on port's subnet.
func LocalIP(port int) fstack.IPv4Addr { return fstack.IP4(10, 0, byte(port), 1) }

// PeerIP is the link partner's address on port's subnet.
func PeerIP(port int) fstack.IPv4Addr { return fstack.IP4(10, 0, byte(port), 2) }

// peerName names the link partner facing a local port.
func peerName(port int) string { return fmt.Sprintf("peer%d", port) }
