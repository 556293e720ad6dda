package app

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// --- DNS codec ---

// dnsAnswerLen is the fixed answer size.
var dnsAnswerLen = dnsHeaderLen + len(dnsQuestion) + len(dnsAnswerRR)

func TestDNSCodecRoundTrip(t *testing.T) {
	buf := make([]byte, 512)
	n := putDNSQuery(buf, 0xBEEF)
	if n != dnsQueryLen {
		t.Fatalf("query length %d, want %d", n, dnsQueryLen)
	}
	if id, ok := dnsID(buf[:n]); !ok || id != 0xBEEF {
		t.Fatalf("query id %#x ok=%v", id, ok)
	}
	n = putDNSAnswer(buf, 0x1234)
	if n != dnsAnswerLen {
		t.Fatalf("answer length %d, want %d", n, dnsAnswerLen)
	}
	if id, ok := dnsID(buf[:n]); !ok || id != 0x1234 {
		t.Fatalf("answer id %#x ok=%v", id, ok)
	}
	// The answer embeds the question and ends in the A record's RDATA.
	if !bytes.Contains(buf[:n], dnsQuestion) {
		t.Fatal("answer does not echo the question")
	}
	if !bytes.HasSuffix(buf[:n], []byte{10, 0, 0, 2}) {
		t.Fatal("answer does not end in the A record address")
	}
}

func TestDNSIDRejectsShortMessages(t *testing.T) {
	if _, ok := dnsID(make([]byte, dnsHeaderLen-1)); ok {
		t.Fatal("truncated header accepted")
	}
}

// dnsMsg builds a query or an answer carrying id.
func dnsMsg(put func([]byte, uint16) int, id uint16) []byte {
	buf := make([]byte, dnsAnswerLen)
	return buf[:put(buf, id)]
}

// TestDNSClientTakesAnswersOnlyFromTheServer: a datagram carrying a live
// ID completes its query only if it is a response (QR set) from the
// server's address and port. A third party, the right host on another
// port, the query echoed back and a short header complete nothing and are
// counted stray.
func TestDNSClientTakesAnswersOnlyFromTheServer(t *testing.T) {
	srv := fstack.IP4(10, 0, 0, 2)
	api := newFakeAPI()
	c, err := NewDNSClient(srv, 53, 4000, 0, 1, 1e6, 1e6, 2) // closed-loop, one query
	if err != nil {
		t.Fatal(err)
	}
	c.Step(api, 0) // socket
	c.Step(api, 1) // query ID 1
	answer := dnsMsg(putDNSAnswer, 1)
	api.dgrams = []fakeDgram{
		{answer, fstack.IP4(10, 0, 0, 9), 53},
		{answer, srv, 54},
		{dnsMsg(putDNSQuery, 1), srv, 53},
		{answer[:dnsHeaderLen-1], srv, 53},
	}
	c.Step(api, 2)
	if c.Completed() != 0 || c.Stray() != 4 {
		t.Fatalf("completed %d, stray %d: want 0 and 4", c.Completed(), c.Stray())
	}
	api.dgrams = []fakeDgram{{answer, srv, 53}}
	c.Step(api, 3)
	if c.Completed() != 1 || c.Stray() != 4 || c.Err() != hostos.OK {
		t.Fatalf("completed %d, stray %d, err %v: the server's answer must complete the query", c.Completed(), c.Stray(), c.Err())
	}
}

// TestDNSClientRetriesThenAbandons walks the retry path against a
// server that never answers: with MaxTries 3 a query times out three
// times, is retransmitted after the first two and abandoned at the
// third. Then a second client's retried query is answered: it completes
// once, timed from its first send, and the stale timeout of the retry
// fires nothing. Both halves hold only if a retry's bumped tries and
// attempt are written back to the flight.
func TestDNSClientRetriesThenAbandons(t *testing.T) {
	srv := fstack.IP4(10, 0, 0, 2)
	const timeout = 100
	api := newFakeAPI()
	c, err := NewDNSClient(srv, 53, 4000, 0, 1, 10, timeout, 3) // closed-loop, one query
	if err != nil {
		t.Fatal(err)
	}
	c.Step(api, 0) // socket
	c.Step(api, 1) // query ID 1; the duration ends before it resolves
	for now := int64(1); !c.Done(); now += timeout {
		if now > 10*timeout {
			t.Fatalf("query still in flight at %d ns: timeouts %d, sent %d", now, c.Timeouts(), len(api.sent))
		}
		c.Step(api, now)
	}
	if c.Issued() != 1 || c.Timeouts() != 3 || len(api.sent) != 3 || c.Failed() != 1 || c.Completed() != 0 {
		t.Fatalf("issued %d, timeouts %d, sent %d, failed %d, completed %d: want 1, 3, 3 (2 retransmits), 1, 0",
			c.Issued(), c.Timeouts(), len(api.sent), c.Failed(), c.Completed())
	}
	for i, q := range api.sent {
		if id, _ := dnsID(q); id != 1 {
			t.Fatalf("datagram %d carries ID %d, want the query's ID 1", i, id)
		}
	}

	api = newFakeAPI()
	c, _ = NewDNSClient(srv, 53, 4000, 0, 1, 10, timeout, 3)
	c.Step(api, 0)
	c.Step(api, 1)         // query ID 1
	c.Step(api, 1+timeout) // first timeout: retransmitted
	answer := fakeDgram{dnsMsg(putDNSAnswer, 1), srv, 53}
	api.dgrams = []fakeDgram{answer, answer}
	c.Step(api, 150) // the answer and a duplicate
	c.Step(api, 1+2*timeout)
	if c.Completed() != 1 || c.Timeouts() != 1 || c.Failed() != 0 || len(api.sent) != 2 || !c.Done() {
		t.Fatalf("completed %d, timeouts %d, failed %d, sent %d, done %v: want 1, 1, 0, 2, true",
			c.Completed(), c.Timeouts(), c.Failed(), len(api.sent), c.Done())
	}
	if c.Hist.Count() != 1 || c.Hist.Max() != 149 {
		t.Fatalf("latency samples %d, max %d ns: want one of 149 (from the first send)", c.Hist.Count(), c.Hist.Max())
	}
}

// TestDNSClientTimeoutQueueStaysBounded: an open-loop run never drains
// the timeout queue (answered queries leave their entries until the
// deadline), so without compaction it grows to one entry per query ever
// issued. With every query answered, it must stay a small multiple of
// what one timeout's worth of queries holds.
func TestDNSClientTimeoutQueueStaysBounded(t *testing.T) {
	srv := fstack.IP4(10, 0, 0, 2)
	const (
		rate     = 100_000   // queries/s
		timeout  = 1_000_000 // ns: 100 queries per timeout
		duration = 100_000_000
	)
	api := newFakeAPI()
	c, err := NewDNSClient(srv, 53, 4000, rate, 0, duration, timeout, 2)
	if err != nil {
		t.Fatal(err)
	}
	maxCap := 0
	for now := int64(0); !c.Done(); now += 10_000 {
		if now > 2*duration {
			t.Fatalf("run not done at %d ns", now)
		}
		for _, q := range api.sent {
			id, _ := dnsID(q)
			api.dgrams = append(api.dgrams, fakeDgram{dnsMsg(putDNSAnswer, id), srv, 53})
		}
		api.sent = api.sent[:0]
		c.Step(api, now)
		maxCap = max(maxCap, cap(c.queue))
	}
	if c.Issued() < 9000 || c.Completed() != c.Issued() {
		t.Fatalf("issued %d, completed %d: want ≈ 10 000, all answered", c.Issued(), c.Completed())
	}
	if bound := 4 * rate * timeout / 1_000_000_000; maxCap > bound {
		t.Fatalf("timeout queue reached capacity %d over %d queries, want ≤ %d", maxCap, c.Issued(), bound)
	}
}

// dnsServe steps a set-up server over one readable datagram.
func dnsServe(data []byte) (*DNSServer, *fakeAPI) {
	api := newFakeAPI()
	s := NewDNSServer(fstack.IPv4Addr{}, 53)
	s.Step(api, 0)
	api.dgrams = []fakeDgram{{data, fstack.IP4(10, 0, 0, 1), 40000}}
	api.events = [][]fstack.Event{{{FD: s.fd, Events: fstack.EPOLLIN}}}
	s.Step(api, 1)
	return s, api
}

// TestDNSServerDoesNotAnswerResponses: a response (QR set) is not a
// query. Answering it would let two responders, or one and a spoofed
// source, reflect forever; it is counted malformed instead.
func TestDNSServerDoesNotAnswerResponses(t *testing.T) {
	s, api := dnsServe(dnsMsg(putDNSAnswer, 7))
	if s.Served() != 0 || s.Malformed() != 1 || len(api.sent) != 0 {
		t.Fatalf("served %d, malformed %d, sent %d: a response was answered", s.Served(), s.Malformed(), len(api.sent))
	}
}

// FuzzDNSServerDatagram feeds any bytes to the server as one datagram:
// it never panics, counts the datagram exactly once (served, malformed or
// tx-busy), and sends an answer iff it served one, echoing the query's ID.
func FuzzDNSServerDatagram(f *testing.F) {
	f.Add(dnsMsg(putDNSQuery, 0xBEEF))
	f.Add(dnsMsg(putDNSAnswer, 0xBEEF))
	f.Add(make([]byte, dnsHeaderLen-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, api := dnsServe(data)
		if n := s.Served() + s.Malformed() + s.TxBusy(); n != 1 || s.Err() != hostos.OK {
			t.Fatalf("counted %d times (err %v), want once", n, s.Err())
		}
		if uint64(len(api.sent)) != s.Served() {
			t.Fatalf("%d answers sent, %d served", len(api.sent), s.Served())
		}
		if s.Served() == 1 {
			got, _ := dnsID(api.sent[0])
			if want, _ := dnsID(data); got != want {
				t.Fatalf("answer ID %#x, query ID %#x", got, want)
			}
		}
	})
}

// FuzzDNSClientAnswer delivers any bytes twice, as two datagrams, to a
// closed-loop client with 0, 1 or 3 queries (IDs 1..k) in flight, from
// the server's address or from another. It never panics and never
// completes more than it issued; each copy that is not an ID-parseable
// response (QR set) from the server raises Stray by exactly one; and an
// answer completes its in-flight ID once, the second copy nothing.
func FuzzDNSClientAnswer(f *testing.F) {
	f.Add(dnsMsg(putDNSAnswer, 1), uint8(1), true)
	f.Add(dnsMsg(putDNSAnswer, 3), uint8(3), true)
	f.Add(dnsMsg(putDNSAnswer, 1), uint8(1), false)
	f.Add(dnsMsg(putDNSQuery, 1), uint8(1), true)
	f.Add(make([]byte, dnsHeaderLen-1), uint8(0), true)
	f.Add([]byte{}, uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, inflight uint8, fromServer bool) {
		srv := fstack.IP4(10, 0, 0, 2)
		k := []int{0, 1, 3}[inflight%3]
		api := newFakeAPI()
		c, err := NewDNSClient(srv, 53, 4000, 0, max(k, 1), 1e6, 1e6, 2)
		if err != nil {
			t.Fatal(err)
		}
		c.Step(api, 0) // socket
		if k > 0 {
			c.Step(api, 1) // queries 1..k
		}
		from := srv
		if !fromServer {
			from = fstack.IP4(10, 0, 0, 9)
		}
		api.dgrams = []fakeDgram{{data, from, 53}, {data, from, 53}}
		c.Step(api, 2) // both copies drained before any new query
		id, ok := dnsID(data)
		answer := ok && fromServer && data[2]&dnsQR != 0
		var wantStray, wantDone uint64
		if !answer {
			wantStray = 2
		} else if int(id) >= 1 && int(id) <= k {
			wantDone = 1
		}
		if c.Stray() != wantStray || c.Completed() != wantDone || c.Err() != hostos.OK {
			t.Fatalf("%d in flight, id %d answer=%v: stray %d completed %d err %v, want stray %d completed %d",
				k, id, answer, c.Stray(), c.Completed(), c.Err(), wantStray, wantDone)
		}
		if c.Completed() > c.Issued() {
			t.Fatalf("completed %d of %d issued", c.Completed(), c.Issued())
		}
	})
}

// --- HTTP client incremental parser ---

// newParserClient builds a client whose parser can be fed directly.
func newParserClient(t *testing.T) (*HTTPClient, *httpCliConn) {
	t.Helper()
	c, err := NewHTTPClient(fstack.IPv4Addr{}, 80, 1, nil, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	return c, &httpCliConn{need: -1}
}

// pend registers an outstanding request issued at t0 without a stack.
func pend(c *HTTPClient, cc *httpCliConn, t0 int64) {
	cc.t0 = append(cc.t0, t0)
	c.inflight++
	c.issued++
}

func TestHTTPParserSplitHead(t *testing.T) {
	c, cc := newParserClient(t)
	pend(c, cc, 100)
	// The head arrives in three fragments, the last carrying body bytes.
	for _, frag := range []string{"HTTP/1.1 200 OK\r\nContent-L", "ength: 4\r\n", "\r\nab"} {
		if !c.feed(cc, []byte(frag), 500) {
			t.Fatalf("parser failed on %q: %v", frag, c.failure)
		}
	}
	if c.completed != 0 || cc.need != 2 {
		t.Fatalf("after partial body: completed=%d need=%d", c.completed, cc.need)
	}
	if !c.feed(cc, []byte("cd"), 900) {
		t.Fatal(c.failure)
	}
	if c.completed != 1 || c.inflight != 0 {
		t.Fatalf("completed=%d inflight=%d", c.completed, c.inflight)
	}
	if got := c.Hist.Quantile(0.5); got <= 0 || got > 800 {
		t.Fatalf("recorded latency %d, want ~800", got)
	}
}

func TestHTTPParserPipelinedResponses(t *testing.T) {
	c, cc := newParserClient(t)
	pend(c, cc, 0)
	pend(c, cc, 0)
	pend(c, cc, 0)
	// Three responses in one segment: sized body, empty body, sized
	// body — each must complete exactly one outstanding request.
	seg := []byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nxyz" +
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	if !c.feed(cc, seg, 50) {
		t.Fatal(c.failure)
	}
	if c.completed != 3 || c.inflight != 0 || cc.outstanding() != 0 {
		t.Fatalf("completed=%d inflight=%d outstanding=%d", c.completed, c.inflight, cc.outstanding())
	}
}

func TestHTTPParserRejectsMissingContentLength(t *testing.T) {
	c, cc := newParserClient(t)
	pend(c, cc, 0)
	if c.feed(cc, []byte("HTTP/1.1 200 OK\r\nServer: x\r\n\r\n"), 1) {
		t.Fatal("headless response accepted")
	}
	if c.Err() != hostos.EINVAL {
		t.Fatalf("failure %v, want EINVAL", c.Err())
	}
}

func TestHTTPParserRejectsBadContentLength(t *testing.T) {
	c, cc := newParserClient(t)
	pend(c, cc, 0)
	if c.feed(cc, []byte("HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n"), 1) {
		t.Fatal("unparseable length accepted")
	}
	if c.Err() != hostos.EINVAL {
		t.Fatalf("failure %v, want EINVAL", c.Err())
	}
}

// runningClient is a closed-loop HTTP client on the scripted API with its
// one connection (fd 10) up and k requests outstanding on it.
func runningClient(t testing.TB, k int) (*HTTPClient, *fakeAPI, *httpCliConn) {
	t.Helper()
	api := newFakeAPI()
	c, err := NewHTTPClient(fstack.IPv4Addr{}, 80, 1, nil, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c.Step(api, 0) // dial fd 10
	api.events = [][]fstack.Event{{{FD: 10, Events: fstack.EPOLLOUT}}}
	c.Step(api, 1) // up, running
	cc := c.conns[0]
	if !cc.up || cc.fd != 10 || c.Err() != hostos.OK {
		t.Fatalf("connection not up: fd %d up %v err %v", cc.fd, cc.up, c.Err())
	}
	for i := 0; i < k; i++ {
		pend(c, cc, 1)
	}
	return c, api, cc
}

// TestHTTPClientResetsOnMalformedResponse: a response nothing asked for,
// and a negative Content-Length (which would parse the next head out of
// the body), are counted malformed and reset the connection. Neither
// completes a request, panics or fails the run.
func TestHTTPClientResetsOnMalformedResponse(t *testing.T) {
	for _, tc := range []struct {
		name        string
		outstanding int
		stream      string
	}{
		{"unsolicited", 0, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"},
		{"unsolicited after the last answer", 1,
			"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"},
		{"negative length", 2,
			"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, api, cc := runningClient(t, tc.outstanding)
			api.reads[10] = [][]byte{[]byte(tc.stream)}
			completed := c.Completed()
			if !c.read(api, cc, 2) || c.Err() != hostos.OK {
				t.Fatalf("the run failed: %v", c.Err())
			}
			if c.Malformed() != 1 || !api.closed[10] || cc.fd == 10 || cc.up {
				t.Fatalf("malformed %d, fd 10 closed %v, connection now fd %d up %v: want one count and a fresh dial",
					c.Malformed(), api.closed[10], cc.fd, cc.up)
			}
			if c.Completed()+c.Lost() != c.Issued() || c.inflight != 0 {
				t.Fatalf("issued %d = completed %d (was %d) + lost %d, in flight %d", c.Issued(), c.Completed(), completed, c.Lost(), c.inflight)
			}
		})
	}
}

// FuzzHTTPClientResponse feeds any bytes as the response stream of a
// connection with k requests outstanding: the client never panics and
// never completes more requests than it issued.
func FuzzHTTPClientResponse(f *testing.F) {
	f.Add(uint8(1), []byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add(uint8(2), []byte("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nxHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
	f.Add(uint8(0), []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
	f.Add(uint8(1), []byte("HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\nabc"))
	f.Add(uint8(1), []byte("HTTP/1.1 200 OK\r\n\r\n"))
	f.Fuzz(func(t *testing.T, k uint8, stream []byte) {
		c, api, cc := runningClient(t, int(k%8))
		api.reads[10] = [][]byte{stream}
		c.read(api, cc, 2)
		if c.Completed() > c.Issued() || c.inflight < 0 {
			t.Fatalf("completed %d of %d issued, %d in flight", c.Completed(), c.Issued(), c.inflight)
		}
	})
}

// --- HTTP server and client over the scripted API (fake_test.go) ---

// TestHTTPServerPipelinedRequests drives the server over the scripted
// API: a request head split across reads, then two pipelined heads in
// one segment, must produce exactly three responses on the wire, and a
// non-GET head must close the connection.
func TestHTTPServerPipelinedRequests(t *testing.T) {
	api := newFakeAPI()
	srv := NewHTTPServer(fstack.IPv4Addr{}, 80, 8, 5)
	srv.Step(api, 0) // setup: listener + epoll registration

	const cfd = 100
	api.accepts[srv.lfd] = []int{cfd}
	api.reads[cfd] = [][]byte{
		[]byte("GET / HT"),
		[]byte("TP/1.1\r\nHost: x\r\n\r\nGET / HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
	}
	lfd := srv.lfd
	api.events = [][]fstack.Event{
		{{FD: lfd, Events: fstack.EPOLLIN}},
		{{FD: cfd, Events: fstack.EPOLLIN}},
	}
	srv.Step(api, 1) // accept
	srv.Step(api, 2) // read + answer
	if srv.Served() != 3 || srv.Err() != hostos.OK {
		t.Fatalf("served=%d err=%v", srv.Served(), srv.Err())
	}
	want := bytes.Repeat(srv.resp, 3)
	if !bytes.Equal(api.writes[cfd], want) {
		t.Fatalf("wire bytes:\n%q\nwant:\n%q", api.writes[cfd], want)
	}

	// A non-GET head drops the connection and counts as bad.
	api.reads[cfd] = [][]byte{[]byte("PUT / HTTP/1.1\r\n\r\n")}
	api.events = [][]fstack.Event{{{FD: cfd, Events: fstack.EPOLLIN}}}
	srv.Step(api, 3)
	if srv.Bad() != 1 || !api.closed[cfd] {
		t.Fatalf("bad=%d closed=%v", srv.Bad(), api.closed[cfd])
	}
}

// httpHead is a GET head of exactly n bytes, terminator included.
func httpHead(n int) []byte {
	h := []byte("GET / HTTP/1.1\r\nX: ")
	h = append(h, bytes.Repeat([]byte{'x'}, n-len(h)-len(crlfcrlf))...)
	return append(h, crlfcrlf...)
}

// refServe is what a server may make of a request stream: every head
// that ends within httpMaxHead bytes of the last one is served until
// one is not a GET, or one runs past the limit (ended or not); either
// counts bad and ends the connection.
func refServe(stream []byte) (served, bad uint64) {
	for {
		i := bytes.Index(stream, crlfcrlf)
		if i < 0 && len(stream) < httpMaxHead {
			return served, 0
		}
		if i < 0 || i+len(crlfcrlf) > httpMaxHead || !bytes.HasPrefix(stream, []byte("GET ")) {
			return served, 1
		}
		served++
		stream = stream[i+len(crlfcrlf):]
	}
}

// checkedReads is the scripted API with a check run before every Read.
type checkedReads struct {
	*fakeAPI
	check func()
}

func (a checkedReads) Read(fd int, dst []byte) (int, hostos.Errno) {
	a.check()
	return a.fakeAPI.Read(fd, dst)
}

// serveChunks runs a server with one accepted connection (fd 100) over
// the scripted API and delivers stream to it in reads of the given
// sizes (cycled). Before every read and after the last, a connection
// still open holds a partial head under httpMaxHead.
func serveChunks(t testing.TB, stream []byte, sizes ...int) *HTTPServer {
	t.Helper()
	const cfd = 100
	srv := NewHTTPServer(fstack.IPv4Addr{}, 80, 8, 5)
	check := func() {
		if c, open := srv.conns[cfd]; open && len(c.rx) >= httpMaxHead {
			t.Fatalf("a partial head of %d bytes is buffered, limit %d", len(c.rx), httpMaxHead)
		}
	}
	api := checkedReads{newFakeAPI(), check}
	srv.Step(api, 0)
	api.accepts[srv.lfd] = []int{cfd}
	api.events = [][]fstack.Event{{{FD: srv.lfd, Events: fstack.EPOLLIN}}}
	srv.Step(api, 1)
	for k := 0; len(stream) > 0; k++ {
		n := min(len(stream), sizes[k%len(sizes)], len(srv.buf))
		api.reads[cfd] = append(api.reads[cfd], stream[:n])
		stream = stream[n:]
	}
	api.events = [][]fstack.Event{{{FD: cfd, Events: fstack.EPOLLIN}}}
	srv.Step(api, 2)
	check()
	return srv
}

// TestHTTPServerBoundsTheHead: a head of exactly httpMaxHead bytes is
// served however it arrives; one byte more, or a head that never ends,
// is counted bad and closes the connection without the partial head
// ever outgrowing the limit.
func TestHTTPServerBoundsTheHead(t *testing.T) {
	endless := bytes.Repeat([]byte("GET / HTTP/1.1\r\nX: y\r\n"), 2000)
	for _, tc := range []struct {
		name        string
		stream      []byte
		served, bad uint64
	}{
		{"at the limit", append(httpHead(httpMaxHead), httpRequest...), 2, 0},
		{"one past the limit", append(httpRequest, httpHead(httpMaxHead+1)...), 1, 1},
		{"never ends", endless, 0, 1},
	} {
		for _, size := range []int{1 << 14, 1000, 7} {
			srv := serveChunks(t, tc.stream, size)
			if srv.Served() != tc.served || srv.Bad() != tc.bad || srv.Err() != hostos.OK {
				t.Errorf("%s in %d-byte reads: served %d bad %d (err %v), want %d and %d",
					tc.name, size, srv.Served(), srv.Bad(), srv.Err(), tc.served, tc.bad)
			}
		}
	}
}

// FuzzHTTPServerRequest feeds any bytes, in any chunking, as the request
// stream of one connection: the server never panics, never buffers a
// partial head at or past httpMaxHead, and serves and rejects exactly
// what refServe does — so served + bad never exceeds the heads the
// stream holds, plus the one that overran.
func FuzzHTTPServerRequest(f *testing.F) {
	f.Add([]byte{}, httpRequest)
	f.Add([]byte{3}, append(append([]byte{}, httpRequest...), httpRequest...))
	f.Add([]byte{0, 9}, []byte("GET / HT\r\n\r\nPUT / HTTP/1.1\r\n\r\n"))
	f.Add([]byte{127}, httpHead(httpMaxHead))
	f.Add([]byte{127, 0, 0}, httpHead(httpMaxHead+1))
	f.Add([]byte{255}, bytes.Repeat([]byte{'\r', '\n', 'x'}, 4000))
	f.Fuzz(func(t *testing.T, cuts, stream []byte) {
		sizes := []int{1 << 14}
		if len(cuts) > 0 {
			sizes = sizes[:0]
			for _, c := range cuts {
				sizes = append(sizes, 1+int(c)<<6)
			}
		}
		srv := serveChunks(t, stream, sizes...)
		served, bad := refServe(stream)
		if srv.Served() != served || srv.Bad() != bad {
			t.Fatalf("served %d bad %d, reference %d and %d", srv.Served(), srv.Bad(), served, bad)
		}
	})
}

// TestHTTPClientBoundsTheHead: a response head past httpMaxHead is
// malformed and resets the connection, with the partial head never
// outgrowing the limit; one exactly at the limit completes its request.
func TestHTTPClientBoundsTheHead(t *testing.T) {
	head := func(n int) []byte {
		h := []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX: ")
		h = append(h, bytes.Repeat([]byte{'x'}, n-len(h)-len(crlfcrlf))...)
		return append(h, crlfcrlf...)
	}
	for _, tc := range []struct {
		name      string
		stream    []byte
		completed uint64
		malformed uint64
	}{
		{"at the limit", head(httpMaxHead), 1, 0},
		{"one past the limit", head(httpMaxHead + 1), 0, 1},
		{"never ends", bytes.Repeat([]byte("Server: x\r\n"), 2000), 0, 1},
	} {
		c, api, cc := runningClient(t, 1)
		for b := tc.stream; len(b) > 0 && cc.fd == 10; b = b[min(len(b), 1000):] {
			api.reads[10] = [][]byte{b[:min(len(b), 1000)]}
			if !c.read(api, cc, 2) {
				t.Fatalf("%s: the run failed: %v", tc.name, c.Err())
			}
			if len(cc.hdr) >= httpMaxHead {
				t.Fatalf("%s: a partial head of %d bytes is buffered", tc.name, len(cc.hdr))
			}
		}
		if c.Completed() != tc.completed || c.Malformed() != tc.malformed || c.Err() != hostos.OK {
			t.Errorf("%s: completed %d malformed %d (err %v), want %d and %d",
				tc.name, c.Completed(), c.Malformed(), c.Err(), tc.completed, tc.malformed)
		}
		if tc.malformed > 0 && (!api.closed[10] || cc.fd == 10) {
			t.Errorf("%s: fd 10 closed %v, connection now fd %d: want a fresh dial", tc.name, api.closed[10], cc.fd)
		}
	}
}

// TestHTTPServerAnnouncesQueuedWork pins the server's deadline hook to
// the two kinds of work one Step leaves for the next, which no stack
// event announces: a connection accepted after this Step's EpollWait
// (its request may have arrived in the same poll), and ready
// descriptors a full event buffer could not report.
func TestHTTPServerAnnouncesQueuedWork(t *testing.T) {
	api := newFakeAPI()
	srv := NewHTTPServer(fstack.IPv4Addr{}, 80, 8, 5)
	quiet := func(when string, now int64) {
		t.Helper()
		if d := srv.NextDeadline(now); d != math.MaxInt64 {
			t.Fatalf("%s: deadline %d, want none", when, d)
		}
	}
	due := func(when string, now int64) {
		t.Helper()
		if d := srv.NextDeadline(now); d != now {
			t.Fatalf("%s: deadline %d, want now (%d)", when, d, now)
		}
	}
	srv.Step(api, 0)
	quiet("after setup", 0)

	api.accepts[srv.lfd] = []int{100, 101, 102}
	api.events = [][]fstack.Event{{{FD: srv.lfd, Events: fstack.EPOLLIN}}}
	srv.Step(api, 1)
	due("after accepting", 1)
	srv.Step(api, 2)
	quiet("after an empty wait", 2)

	// Three readable connections against a two-entry buffer: the first
	// wait is full, the second reports the rest.
	srv.evs = srv.evs[:2]
	for fd := 100; fd <= 102; fd++ {
		api.reads[fd] = [][]byte{httpRequest}
	}
	api.events = [][]fstack.Event{
		{{FD: 100, Events: fstack.EPOLLIN}, {FD: 101, Events: fstack.EPOLLIN}},
		{{FD: 102, Events: fstack.EPOLLIN}},
	}
	srv.Step(api, 3)
	due("after a full wait", 3)
	srv.Step(api, 4)
	quiet("after the rest was reported", 4)
	if srv.Served() != 3 {
		t.Fatalf("served %d requests, want 3", srv.Served())
	}
}

// TestHTTPClientAnnouncesQueuedWork is the client's half: its only
// queued next-Step work is what a full event buffer left unreported —
// while connecting and while running — plus the first measured Step it
// queues itself when the last connection comes up.
func TestHTTPClientAnnouncesQueuedWork(t *testing.T) {
	const durationNS = 1_000
	api := newFakeAPI()
	c, err := NewHTTPClient(fstack.IPv4Addr{}, 80, 3, nil, 0, durationNS) // closed-loop
	if err != nil {
		t.Fatal(err)
	}
	c.evs = c.evs[:2]
	step := func(when string, now, want int64) {
		t.Helper()
		c.Step(api, now)
		if d := c.NextDeadline(now); d != want || c.Err() != hostos.OK {
			t.Fatalf("%s: deadline %d (err %v), want %d", when, d, c.Err(), want)
		}
	}
	out := func(fds ...int) (evs []fstack.Event) {
		for _, fd := range fds {
			evs = append(evs, fstack.Event{FD: fd, Events: fstack.EPOLLOUT})
		}
		return evs
	}
	in := func(fds ...int) (evs []fstack.Event) {
		for _, fd := range fds {
			evs = append(evs, fstack.Event{FD: fd, Events: fstack.EPOLLIN})
		}
		return evs
	}
	step("connects started", 0, math.MaxInt64) // fds 10, 11, 12

	// Three handshakes complete against the two-entry buffer.
	api.events = [][]fstack.Event{out(10, 11), out(12)}
	step("connecting, full wait", 1, 1)
	step("last connection up", 2, 2) // the first measured Step is queued
	const end = 2 + durationNS
	step("three requests issued", 3, end)
	if c.Issued() != 3 {
		t.Fatalf("issued %d requests, want 3", c.Issued())
	}

	// Three responses against the two-entry buffer.
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	for fd := 10; fd <= 12; fd++ {
		api.reads[fd] = [][]byte{resp}
	}
	api.events = [][]fstack.Event{in(10, 11), in(12)}
	step("running, full wait", 4, 4)
	step("the rest reported", 5, end)
	if c.Completed() != 3 {
		t.Fatalf("completed %d requests, want 3", c.Completed())
	}
}
