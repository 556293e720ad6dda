package fstack

import "repro/internal/hostos"

// The LockedAPI methods mirror the Stack API one-for-one but assume the
// caller already holds the stack mutex — i.e. it is running inside the
// main loop's user callback (Baseline / Scenario 1, where application
// and stack share a compartment) or inside a Scenario 2 gate target.

// Socket creates a descriptor.
func (a LockedAPI) Socket(typ int) (int, hostos.Errno) { return a.S.socketLocked(typ) }

// Bind attaches a local address.
func (a LockedAPI) Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	return a.S.bindLocked(fd, ip, port)
}

// Listen makes a stream socket passive.
func (a LockedAPI) Listen(fd, backlog int) hostos.Errno { return a.S.listenLocked(fd, backlog) }

// Accept dequeues an established connection.
func (a LockedAPI) Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	return a.S.acceptLocked(fd)
}

// Connect starts an active open.
func (a LockedAPI) Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	return a.S.connectLocked(fd, ip, port)
}

// Read consumes received bytes.
func (a LockedAPI) Read(fd int, dst []byte) (int, hostos.Errno) { return a.S.readLocked(fd, dst) }

// Write stores bytes for transmission.
func (a LockedAPI) Write(fd int, src []byte) (int, hostos.Errno) { return a.S.writeLocked(fd, src) }

// Close shuts a descriptor down.
func (a LockedAPI) Close(fd int) hostos.Errno { return a.S.closeLocked(fd) }

// SendTo transmits one datagram.
func (a LockedAPI) SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	return a.S.sendToLocked(fd, data, ip, port)
}

// RecvFrom pops one datagram.
func (a LockedAPI) RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	return a.S.recvFromLocked(fd, dst)
}

// EpollCreate makes an epoll descriptor.
func (a LockedAPI) EpollCreate() int { return a.S.epollCreateLocked() }

// EpollCtl manipulates an interest set.
func (a LockedAPI) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	return a.S.epollCtlLocked(epfd, op, fd, events)
}

// EpollWait collects ready events.
func (a LockedAPI) EpollWait(epfd int, evs []Event) (int, hostos.Errno) {
	return a.S.epollWaitLocked(epfd, evs)
}
