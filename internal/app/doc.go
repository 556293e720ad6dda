// Package app is the one home of the workloads: every application the
// testbed runs over the fstack socket API (fstack.API), each a
// non-blocking Step state machine with a sticky errno and a deadline
// hook, so the same code runs in a stack's main-loop callback
// (Baseline / Scenario 1), in an application compartment through
// cross-cVM gates (Scenario 2), on a peer or on the sharded API, under
// the event-driven virtual clock. Four client/server pairs, and the
// measurement pair of Figs. 4-6:
//
//   - IperfClient/IperfServer: the iperf3 analog of the paper's
//     evaluation ("we selected iperf3 [31] as an application ... iperf3
//     allows to define a server-client connection to measure the maximum
//     bandwidth achievable", §II-C). Like the paper's port it is
//     epoll-driven (the original select() call was replaced, §III-B) and
//     runs in poll mode. A client saturates one TCP connection toward a
//     server and reports the goodput in Mbit/s, measured on the receiver
//     and the sender sides exactly as Table II does ("both server
//     (receiver) and client (sender) modes").
//
//   - ChurnClient/ChurnServer: the connection storm behind Scenario 8.
//     The client holds a large population of idle connections, then
//     drives rate-paced short flows (connect, 64 bytes, close) at the
//     server that accepts them. It manages its own source ports
//     (explicit Bind before Connect) instead of leaning on the ephemeral
//     allocator: connection i takes sport sportBase+i%sportSpan toward
//     dport base+(i/sportSpan), which keeps every concurrently-open
//     tuple distinct without coordination, and — once i wraps the sport
//     space — deliberately re-offers tuples whose previous incarnation
//     may still sit in TIME_WAIT, exercising the stack's 2MSL-reuse
//     path. The client closes first, so TIME_WAIT accumulates on the
//     client stack, exactly as it does on real load generators.
//
//   - HTTPServer/HTTPClient: an HTTP/1.1-style keep-alive exchange, the
//     laitos-style daemon shape cut down to what Scenario 9 measures,
//     where per-request tail latency — not goodput — is the figure of
//     merit. The server parses pipelined GETs incrementally over Read
//     and answers each with a fixed-size response, buffering what Write
//     does not accept and re-arming EPOLLOUT until it drains. The
//     client holds a set of persistent connections and issues requests
//     either open-loop (rate-paced, round-robin over the connections,
//     pipelining onto busy ones — queueing delay shows up in the tail)
//     or closed-loop (each connection issues back-to-back, one
//     outstanding request per connection).
//
//   - DNSServer/DNSClient: a DNS-shaped UDP query/answer exchange over
//     SendTo/RecvFrom. Queries carry a 16-bit ID the answer echoes;
//     the client paces queries (open-loop) or holds a fixed number
//     outstanding (closed-loop), retransmits on timeout up to a retry
//     budget, and counts expirations and abandoned queries.
//
//   - WriteProbe/Hammer: the timed ff_write probe of §IV and the
//     saturating second application of the contended Scenario 2.
//
// All ten are written over one small socket kit (app.go), each
// sequence once: dial (socket, bind, watch, connect), listen, harvest
// (one EpollWait in descriptor order), flush (a connection's unsent
// bytes and its EPOLLOUT interest), the pacer (the open-loop schedule
// Step and NextDeadline both read) and the embedded latches.
//
// The request latency clock starts the instant a request is issued
// (the pace slot's Step, before any Write — so send-side queueing is
// part of the measurement) and stops when the last byte of its
// response is read (the answer datagram, for DNS). Latencies are
// recorded into a stats.Histogram per client, mergeable across
// workers/shards, and optionally traced per request
// (obs.EvAppRequest).
package app
