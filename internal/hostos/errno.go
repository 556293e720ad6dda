package hostos

import "fmt"

// Errno is a FreeBSD-style error number returned by syscalls. OK (0)
// means success.
type Errno int

// Errno values (numerically aligned with FreeBSD where it matters).
const (
	OK            Errno = 0
	EPERM         Errno = 1
	ENOENT        Errno = 2
	EINTR         Errno = 4
	EIO           Errno = 5
	EBADF         Errno = 9
	ENOMEM        Errno = 12
	EFAULT        Errno = 14
	EBUSY         Errno = 16
	EINVAL        Errno = 22
	EPIPE         Errno = 32
	EAGAIN        Errno = 35
	EINPROGRESS   Errno = 36
	EMSGSIZE      Errno = 40
	EADDRINUSE    Errno = 48
	EADDRNOTAVAIL Errno = 49
	ENETDOWN      Errno = 50
	ECONNRESET    Errno = 54
	EISCONN       Errno = 56
	ENOTCONN      Errno = 57
	ETIMEDOUT     Errno = 60
	ECONNREFUSED  Errno = 61
	ENOSYS        Errno = 78
)

var errnoNames = map[Errno]string{
	OK:            "OK",
	EPERM:         "EPERM",
	ENOENT:        "ENOENT",
	EINTR:         "EINTR",
	EIO:           "EIO",
	EBADF:         "EBADF",
	ENOMEM:        "ENOMEM",
	EFAULT:        "EFAULT",
	EBUSY:         "EBUSY",
	EINVAL:        "EINVAL",
	ENOSYS:        "ENOSYS",
	EAGAIN:        "EAGAIN",
	ETIMEDOUT:     "ETIMEDOUT",
	EPIPE:         "EPIPE",
	EINPROGRESS:   "EINPROGRESS",
	EMSGSIZE:      "EMSGSIZE",
	EADDRINUSE:    "EADDRINUSE",
	EADDRNOTAVAIL: "EADDRNOTAVAIL",
	ENETDOWN:      "ENETDOWN",
	ECONNRESET:    "ECONNRESET",
	EISCONN:       "EISCONN",
	ENOTCONN:      "ENOTCONN",
	ECONNREFUSED:  "ECONNREFUSED",
}

// String returns the symbolic name.
func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("Errno(%d)", int(e))
}

// Error satisfies error for non-zero errnos.
func (e Errno) Error() string { return e.String() }
