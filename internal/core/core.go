// Package core composes the substrates into the paper's systems and
// carries the experiment drivers. Topology construction is declarative:
// every scenario is a testbed.Spec — one spec struct per layout —
// handed to testbed.Build, which wires the simulated Morello box with
// its dual-port 82576 NIC, the CheriBSD-like kernel, the Intravisor
// with its cVMs, the DPDK+F-Stack userspace network stack, and the
// remote link partners. The three evaluation layouts of §III:
//
//   - Baseline: no CHERI. The stack and application run as ordinary
//     processes (MMU isolation), raw buffers, direct host syscalls.
//   - Scenario 1: full replication. Each of two cVMs contains the whole
//     application + F-Stack + DPDK stack on its own Ethernet port.
//   - Scenario 2: split. cVM1 runs F-Stack + DPDK; one (uncontended) or
//     two (contended) application cVMs call the F-Stack API through
//     cross-compartment gates, serialized by the stack mutex.
//
// Past the paper, forward-looking scenarios ride on the same spec
// model: Scenario 3 (§VI's future work — DPDK separated into its own
// cVM, gates on the datapath), Scenario 4 (multi-core scaling — a
// multi-queue RSS port with one CPU-budgeted stack shard per queue
// pair), Scenario 5 (a lossy high-BDP WAN behind a netem.Link,
// comparing go-back-N against SACK + window scaling), Scenario 6 (the
// composition: the sharded stack of Scenario 4 driving many flows
// through the impaired — and per-direction asymmetric — bottleneck of
// Scenario 5), Scenario 7 (the same WAN, reno against cubic across the
// RTT ladder), Scenario 8 (a connection churn storm over a held idle
// population), Scenario 9 (HTTP- and DNS-shaped request/response tail
// latency) and Scenario 10 (a capability-fault storm: blast radius and
// time-to-recovery, Baseline monolith against one cVM per shard).
//
// Every run goes through one scenario harness (harness.go: the
// measured-run wrapper over the event-driven virtual clock, the
// build-then-run and the sweep over the host worker pool) and every
// bulk iperf measurement — Table II and Scenarios 3-7 — through one
// flow driver (flows.go); a scenario file holds its config defaults,
// its result struct and its table. The endpoints a run places — iperf,
// churn, HTTP, DNS, the timed ff_write probe and its hammer — all come
// from internal/app, the one workload package. Figs. 4-6 (latency.go)
// are such runs too: their samples are virtual time read off each site's
// own clock (sim's crossing-cost table), and nothing here starts a
// goroutine or reads a real clock outside the sweep pool (parallel.go).
// The package also carries fig3.go and table1.go, and the scenario
// registry (registry.go) the cherinet command consumes: each entry
// declares the flags it reads and the range each accepts.
package core

import (
	"repro/internal/fstack"
	"repro/internal/testbed"
)

// The construction layer lives in internal/testbed; these aliases keep
// the measurement drivers and their callers on the familiar names.
type (
	// Setup is a wired topology (a testbed.Bed).
	Setup = testbed.Bed
	// Env is one network environment of the local box.
	Env = testbed.Env
	// Peer is a remote link partner.
	Peer = testbed.Peer
)

// localIP and peerIP forward to the testbed addressing plan: port i
// uses subnet 10.0.i.0/24 with .1 local and .2 remote.
func localIP(port int) fstack.IPv4Addr { return testbed.LocalIP(port) }
func peerIP(port int) fstack.IPv4Addr  { return testbed.PeerIP(port) }
