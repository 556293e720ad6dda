package app

import (
	"repro/internal/fstack"
	"repro/internal/hostos"
)

// fakeAPI scripts the socket surface the endpoints see: queued accepts
// per listener, per-descriptor read chunks (an empty chunk is EOF),
// queued datagrams with their source, captured writes and datagrams, queued epoll ready sets. Everything
// else succeeds. It logs every call by name and fails the failAt-th
// (1-based) with failWith — the fault the kit tests inject.
type fakeAPI struct {
	nextFD  int
	accepts map[int][]int
	reads   map[int][][]byte
	dgrams  []fakeDgram
	sent    [][]byte // every datagram SendTo took, copied
	writes  map[int][]byte
	// room, when non-negative, is how many more bytes Write accepts
	// before it answers EAGAIN.
	room   int
	events [][]fstack.Event
	closed map[int]bool

	calls    []string
	failAt   int
	failWith hostos.Errno
}

// fakeDgram is one queued datagram and the address it came from.
type fakeDgram struct {
	data []byte
	ip   fstack.IPv4Addr
	port uint16
}

func newFakeAPI() *fakeAPI {
	return &fakeAPI{
		nextFD:  10,
		accepts: make(map[int][]int),
		reads:   make(map[int][][]byte),
		writes:  make(map[int][]byte),
		room:    -1,
		closed:  make(map[int]bool),
	}
}

// call logs one API call and says whether it is the one to fail.
func (f *fakeAPI) call(name string) hostos.Errno {
	f.calls = append(f.calls, name)
	if len(f.calls) == f.failAt {
		return f.failWith
	}
	return hostos.OK
}

func (f *fakeAPI) Socket(int) (int, hostos.Errno) {
	if errno := f.call("Socket"); errno != hostos.OK {
		return -1, errno
	}
	f.nextFD++
	return f.nextFD - 1, hostos.OK
}
func (f *fakeAPI) Bind(int, fstack.IPv4Addr, uint16) hostos.Errno { return f.call("Bind") }
func (f *fakeAPI) Listen(int, int) hostos.Errno                   { return f.call("Listen") }
func (f *fakeAPI) Connect(int, fstack.IPv4Addr, uint16) hostos.Errno {
	if errno := f.call("Connect"); errno != hostos.OK {
		return errno
	}
	return hostos.EINPROGRESS
}
func (f *fakeAPI) Accept(fd int) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	if errno := f.call("Accept"); errno != hostos.OK {
		return -1, fstack.IPv4Addr{}, 0, errno
	}
	q := f.accepts[fd]
	if len(q) == 0 {
		return -1, fstack.IPv4Addr{}, 0, hostos.EAGAIN
	}
	f.accepts[fd] = q[1:]
	return q[0], fstack.IPv4Addr{}, 0, hostos.OK
}
func (f *fakeAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	if errno := f.call("Read"); errno != hostos.OK {
		return 0, errno
	}
	q := f.reads[fd]
	if len(q) == 0 {
		return 0, hostos.EAGAIN
	}
	f.reads[fd] = q[1:]
	return copy(dst, q[0]), hostos.OK
}
func (f *fakeAPI) Write(fd int, src []byte) (int, hostos.Errno) {
	if errno := f.call("Write"); errno != hostos.OK {
		return 0, errno
	}
	if f.room == 0 {
		return 0, hostos.EAGAIN
	}
	if f.room > 0 {
		src = src[:min(len(src), f.room)]
		f.room -= len(src)
	}
	f.writes[fd] = append(f.writes[fd], src...)
	return len(src), hostos.OK
}
func (f *fakeAPI) SendTo(_ int, data []byte, _ fstack.IPv4Addr, _ uint16) (int, hostos.Errno) {
	if errno := f.call("SendTo"); errno != hostos.OK {
		return 0, errno
	}
	f.sent = append(f.sent, append([]byte(nil), data...))
	return len(data), hostos.OK
}
func (f *fakeAPI) RecvFrom(_ int, dst []byte) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	if errno := f.call("RecvFrom"); errno != hostos.OK {
		return 0, fstack.IPv4Addr{}, 0, errno
	}
	if len(f.dgrams) == 0 {
		return 0, fstack.IPv4Addr{}, 0, hostos.EAGAIN
	}
	d := f.dgrams[0]
	f.dgrams = f.dgrams[1:]
	return copy(dst, d.data), d.ip, d.port, hostos.OK
}
func (f *fakeAPI) Close(fd int) hostos.Errno {
	f.closed[fd] = true
	return f.call("Close")
}
func (f *fakeAPI) EpollCreate() int {
	f.call("EpollCreate")
	return 1
}
func (f *fakeAPI) EpollCtl(int, int, int, uint32) hostos.Errno { return f.call("EpollCtl") }
func (f *fakeAPI) EpollWait(_ int, evs []fstack.Event) (int, hostos.Errno) {
	if errno := f.call("EpollWait"); errno != hostos.OK {
		return 0, errno
	}
	if len(f.events) == 0 {
		return 0, hostos.OK
	}
	n := copy(evs, f.events[0])
	f.events = f.events[1:]
	return n, hostos.OK
}
