// Package netem is the simulated testbed's link-impairment pipeline —
// the tc-netem/dummynet analog for the point-to-point cables of the
// nic package. A Link sits between two ports where a plain nic.Wire
// would, and applies deterministic, seeded impairments per direction:
//
//   - random loss: i.i.d. per-frame loss and/or a two-state
//     Gilbert–Elliott burst-loss process;
//   - a rate limiter with a bounded tail-drop queue, modelling the
//     narrow WAN hop between two fast access links;
//   - fixed one-way delay plus uniform jitter;
//   - explicit reordering (a fraction of frames held back extra time).
//
// Frames in flight wait in a per-direction delay line ordered by
// (delivery instant, send order), which the ports pump from every
// device step (an idle pump reads two heads: DESIGN.md §8).
//
// Everything is driven by the shared virtual clock and per-direction
// seeded PRNGs, so a run is exactly reproducible. A Link built with a
// zero Config is bit-transparent: frames pass through unchanged, with
// unchanged timing, which is what keeps Scenarios 1–4 byte-identical
// while Scenario 5 (core/scenario5.go) exercises lossy high-BDP paths.
//
// See DESIGN.md §5 for the model and its calibration against the TCP
// recovery machinery it exists to stress.
package netem
