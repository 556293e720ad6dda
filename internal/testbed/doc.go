// Package testbed is the declarative experiment-construction layer: a
// Spec describes a whole topology — the local Morello-like machine, its
// compartments (Baseline processes or capability cVMs, optionally
// sharded over RSS queue pairs, optionally split behind API or device
// gates), and the remote link partners with their (possibly impaired,
// possibly per-direction-asymmetric) links — and Build wires it into a
// running Bed.
//
// The package replaces the constructor explosion that grew in
// internal/core as each experimental axis arrived (sized environments,
// cVM-hosted environments, rate-matched peers, netem-linked peers):
// every axis is now a field on a spec struct, and axes compose freely.
// Scenario 6 — a sharded stack driving flows through an impaired WAN
// bottleneck — is a Spec with both knobs set, not a ninth constructor.
//
// Inside Build the same holds: a stack binds queue handles
// (dpdk.EthDev.Queue), and one builder (buildEnv) wires every
// environment, local or peer, by composing where the driver lives, how
// many queue pairs it configures, what stands in front of each handle,
// which stack binds them and who calls its API — so shards, API gates
// and device gates combine without any combination being a case.
//
// A spec says what differs between layouts and nothing Build can work
// out: a machine's memory is the sum of what is placed on it, a cVM's
// window its segment plus a fixed application area, its card does
// capability DMA exactly when its compartments are cVMs, a peer
// serializes at the machine's line rate, and every name and address
// comes from the plan in addr.go (DESIGN.md §6).
//
// What is declarative: topology, segment and pool sizing, gate policy,
// stack tuning, link impairments, and observability (Spec.Obs selects the internal/obs instruments —
// flight-recorder trace, metrics sampling, latency histograms, link
// pcap captures — wired into every layer at build time; the zero
// ObsSpec wires nothing and leaves the bed's behavior byte-identical).
// What stays imperative: the experiment itself — callers attach
// applications to the Bed's loops and drive virtual time
// (internal/core's measurement drivers do exactly that).
package testbed
