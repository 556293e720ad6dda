// Package fstack is a user-space TCP/IP stack over DPDK, modelled on
// F-Stack (the FreeBSD-derived stack the paper ports to CheriBSD,
// §II-C/§III-B).
//
// Architecture, following F-Stack's:
//
//   - A Stack is its own single poll-mode main loop: every iteration
//     (Stack.RunOnce) drains the NIC RX rings, runs protocol input,
//     fires timers, flushes TX, and invokes the user callback
//     (Stack.OnLoop). There are no
//     interrupts and no kernel involvement after boot. A stack binds
//     queue handles (EthDevice: one RX/TX queue pair each), never a
//     device — what sits behind a handle (the driver itself, a gated
//     proxy, a CPU model) is the builder's business.
//
//   - Applications use the ff_* socket API (Socket, Bind, Listen,
//     Accept, Connect, Read, Write, Close) plus an epoll-style event
//     API. All calls are non-blocking; readiness is reported through
//     epoll, which is how the paper's iperf3 port works after its
//     select->epoll conversion (§III-B). Readiness is pushed onto a
//     per-instance ready list by the sites that raise it, so EpollWait
//     costs what is ready, not what is registered (epoll.go,
//     DESIGN.md §10).
//
//   - In F-Stack, API calls and the main loop are serialized by one
//     stack mutex. In Baseline and Scenario 1 the application runs
//     inside the loop callback, so the mutex is uncontended; in
//     Scenario 2 separate application compartments call through
//     cross-cVM gates and contend on it — the effect Fig. 6 measures.
//     Here that mutex is modelled, not taken: a bed runs on one
//     goroutine, Stack is the one API whether called from OnLoop, a
//     gate target or between iterations, and what holding and handing
//     over the mutex costs is booked from sim's crossing-cost table.
//
//   - The multi-core escape from that mutex is ShardedStack: N Stack
//     instances, each bound to one queue handle of the same port, with
//     symmetric RSS steering keeping both directions of every flow on
//     one shard.
//     Connections, sockets, listener tables and timers are shard-local;
//     ARP state is shared (read-mostly). ShardedAPI is one caller's
//     descriptor table: a number names the socket itself, which lives on
//     shard 0 until placed — Listen copies it onto every shard, so a SYN
//     is accepted wherever RSS lands it, and Connect moves it to the
//     shard its return traffic reaches — and an epoll registration
//     carries the number, so a wait reports it untranslated. A number's
//     24-byte entry lives in its table page (fdtable.go). Source
//     ports come from the stack's one rotation and round-robin new
//     connections over the shards. A Stack is the view of itself alone.
//     Scenario 4 measures the resulting aggregate-goodput scaling.
//
//   - In capability mode (the CHERI port) socket buffers and all packet
//     memory live in a bounded memory segment and every copy is a
//     checked capability access; ff_write takes a `__capability` buffer
//     argument exactly like the modified API in the paper (§III-B).
//
//   - The connection plane is built for count and churn, not just
//     bulk flows: timers live on hierarchical timing wheels
//     (fstack/connscale — O(1) arm/disarm, exact firing), the poll
//     visits only connections with pending work (idle conns cost
//     nothing per iteration), a segment finds its connection in an
//     open-addressed tuple table (conntable.go, FreeBSD's
//     in_pcblookup_hash shape: linear probing at most half full,
//     deletes shifting the probe run back), inbound handshakes go through a
//     FreeBSD-style SYN cache (a half-open costs one pooled entry,
//     not a conn; backlog/cache overflow is counted, traced and
//     dropped silently), and setup and teardown recycle conns,
//     sockets, cold records, syncache entries and epoll registrations
//     through one arena type (arena.go: slab refills and a last-in,
//     first-out free list, FreeBSD's UMA zone) and timer items through
//     the wheels' pools — a full connect/accept/close/close cycle is
//     zero-alloc at steady state (BenchmarkConnChurn pins it).
//     TIME_WAIT holds tuples for 2MSL with both BSD reuse paths
//     (active reconnect and forward-sequence fresh SYN) counted in
//     StackStats, and gives the conn's socket rings back to the
//     segment on entry; ephemeral-port exhaustion returns
//     EADDRNOTAVAIL.
//
//   - The datagram plane is bounded and pooled: each UDP socket holds
//     a head-indexed receive ring (256 datagrams deep) whose overflow
//     sheds into the dedicated StackStats.UdpQueueDrops counter and an
//     EvUDPDrop trace event — distinct from the datapath's RxDropped —
//     and payload buffers come from a per-stack free list recycled on
//     RecvFrom and Close, so a steady-state query/answer round trip is
//     zero-alloc (BenchmarkUDPRoundTrip pins it). ShardedAPI extends
//     SendTo/RecvFrom with the same RSS steering as TCP: an
//     unbound-socket SendTo auto-binds a source port of the rotation, and
//     Bind copies a datagram socket onto every shard so a datagram is
//     delivered wherever RSS lands it.
//
// Protocols: Ethernet II, ARP, IPv4 (no fragmentation — the MSS never
// exceeds the MTU), ICMP echo, UDP, and TCP with the features the
// evaluation exercises: 3-way handshake, sliding window, timestamp
// options (12 bytes, giving the canonical 1448-byte MSS payload and the
// 941 Mbit/s GbE goodput ceiling), delayed ACKs, fast retransmit, RTO
// with exponential backoff, and a persist timer probing zero receive
// windows so a lost window update cannot stall a connection.
//
// With the zero-value TCPTuning the stack reproduces the paper
// exactly: no SACK (loss recovery is go-back-N — out-of-order segments
// are not queued), no window scaling (64 KiB windows), Reno congestion
// control. Stack.SetTCPTuning opts into the modern machinery per
// stack: RFC 2018 SACK with an RFC 6675 pipe-driven sender scoreboard
// (RFC 6582 NewReno as the non-SACK fallback), RFC 7323 window
// scaling, sized socket buffers, the congestion-control algorithm
// (TCPTuning.Congestion: the paper stack's Reno or RFC 8312 CUBIC) and
// the retransmission-timer floor. A connection's window is two of its
// 32-bit fields, cwnd and ssthresh, moved by its ACK/loss-event methods in
// cc.go; CUBIC's epoch rides in the cold record. DESIGN.md §2 and §7
// discuss both layers, and why stacks on paths with ms-scale queueing
// must raise the floor (TCPTuning.RTOMinNS).
package fstack
