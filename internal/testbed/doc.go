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
// What is declarative: topology, sizing, addressing (with collision
// checks), gate policy, stack tuning, link impairments, and
// observability (Spec.Obs selects the internal/obs instruments —
// flight-recorder trace, metrics sampling, latency histograms, link
// pcap captures — wired into every layer at build time; the zero
// ObsSpec wires nothing and leaves the bed's behavior byte-identical).
// What stays imperative: the experiment itself — callers attach
// applications to the Bed's loops and drive virtual time
// (internal/core's measurement drivers do exactly that).
package testbed
