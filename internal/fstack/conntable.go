package fstack

import "iter"

// connTableMin is the slots a tuple table starts with.
const connTableMin = 16

// connTable is the stack's tuple index, the shape of FreeBSD's
// in_pcblookup_hash: an open-addressed, power-of-two slice of
// connection pointers, probed linearly from the tuple's hash. It is at
// most half full and only grows, so a probe run stays short and the
// table costs 8 B a slot, two slots or more per connection, where a Go
// map of the same population cost about 34 B per connection end.
// Deletion shifts the rest of the run back instead of leaving a
// tombstone: TIME_WAIT churn deletes as often as it inserts, and
// tombstones would lengthen every run until a rebuild.
type connTable struct {
	slots []*tcpConn
	n     int
}

// tupleHash is a fixed, deterministic hash of a tuple: the two
// addresses and the two ports folded into one word and mixed with
// MurmurHash3's 64-bit finalizer, whose low bits pick the home slot.
// It is keyed by nothing, so a peer that chooses its ports could aim
// its tuples at one probe run; a stack facing untrusted peers keys its
// connection hash with a per-boot secret, as Linux's inet_ehashfn and
// FreeBSD's pcb hash seed do.
func tupleHash(t fourTuple) uint64 {
	l, r := t.local.IP, t.remote.IP
	k := (uint64(l[0])<<24 | uint64(l[1])<<16 | uint64(l[2])<<8 | uint64(l[3])) << 32
	k |= uint64(r[0])<<24 | uint64(r[1])<<16 | uint64(r[2])<<8 | uint64(r[3])
	k ^= (uint64(t.local.Port)<<16 | uint64(t.remote.Port)) * 0x9e3779b97f4a7c15
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// home is the slot a tuple's probe run starts at.
func (t *connTable) home(tuple fourTuple) int {
	return int(tupleHash(tuple) & uint64(len(t.slots)-1))
}

// get returns the connection filed under tuple, nil if none.
func (t *connTable) get(tuple fourTuple) *tcpConn {
	if t.n == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(tuple); ; i = (i + 1) & mask {
		c := t.slots[i]
		if c == nil || c.tuple == tuple {
			return c
		}
	}
}

// add files c under its tuple, which no connection in the table holds.
func (t *connTable) add(c *tcpConn) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.insert(c)
	t.n++
}

// insert puts c in the first empty slot of its probe run.
func (t *connTable) insert(c *tcpConn) {
	mask := len(t.slots) - 1
	i := t.home(c.tuple)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = c
}

// grow doubles the table (or makes the first one) and refiles every
// connection.
func (t *connTable) grow() {
	old := t.slots
	t.slots = make([]*tcpConn, max(connTableMin, 2*len(old)))
	for _, c := range old {
		if c != nil {
			t.insert(c)
		}
	}
}

// del takes c out of the table, if it is in it, and shifts back every
// later entry of its probe run that may move toward its home slot, so
// the run has no hole a lookup would stop at.
func (t *connTable) del(c *tcpConn) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(c.tuple)
	for t.slots[i] != c {
		if t.slots[i] == nil {
			return
		}
		i = (i + 1) & mask
	}
	t.n--
	for j := i; ; {
		j = (j + 1) & mask
		d := t.slots[j]
		if d == nil {
			t.slots[i] = nil
			return
		}
		// d stays if its home lies cyclically in (i, j]: moved to i, it
		// would sit before its run's start.
		if h := t.home(d.tuple); (j-h)&mask < (j-i)&mask {
			continue
		}
		t.slots[i] = d
		i = j
	}
}

// all yields every connection in the table, in slot order.
func (t *connTable) all() iter.Seq[*tcpConn] {
	return func(yield func(*tcpConn) bool) {
		for _, c := range t.slots {
			if c != nil && !yield(c) {
				return
			}
		}
	}
}
