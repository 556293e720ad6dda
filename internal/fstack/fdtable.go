package fstack

// fdPageLen is the slots of one descriptor-table page: 12 KiB of a
// view's 24-byte entries, which live in the page itself.
const (
	fdPageBits = 9
	fdPageLen  = 1 << fdPageBits
)

// fdTable maps descriptors to values by index, the way FreeBSD's
// fd_ofiles does: fd>>fdPageBits picks a page, the low bits a slot, and
// T's zero value means "no such descriptor". Descriptors are handed out
// in increasing order and never reused, so the live ones cluster in the
// newest pages: a page is allocated on first use and released when its
// last entry goes — except the newest one, which a caller opening and
// closing one descriptor at a time would otherwise reallocate per call.
type fdTable[T comparable] struct {
	pages []fdPage[T]
}

// fdPage is one page's slots (nil while it holds nothing, the newest
// page excepted) and how many of them are taken.
type fdPage[T comparable] struct {
	slot *[fdPageLen]T
	live int
}

// ref returns fd's slot, nil if fd holds the zero T. The slot stays
// fd's until del: a put of another descriptor moves no slot.
func (t *fdTable[T]) ref(fd int) *T {
	var zero T
	if p := uint(fd) >> fdPageBits; p < uint(len(t.pages)) && t.pages[p].slot != nil {
		if v := &t.pages[p].slot[fd&(fdPageLen-1)]; *v != zero {
			return v
		}
	}
	return nil
}

// put stores a non-zero v under fd >= 0.
func (t *fdTable[T]) put(fd int, v T) {
	if last := len(t.pages) - 1; fd>>fdPageBits > last {
		if last >= 0 && t.pages[last].live == 0 {
			t.pages[last].slot = nil // no longer the newest
		}
		for fd>>fdPageBits >= len(t.pages) {
			t.pages = append(t.pages, fdPage[T]{})
		}
	}
	p := &t.pages[fd>>fdPageBits]
	if p.slot == nil {
		p.slot = new([fdPageLen]T)
	}
	var zero T
	slot := &p.slot[fd&(fdPageLen-1)]
	if *slot == zero {
		p.live++
	}
	*slot = v
}

// del removes fd, if present.
func (t *fdTable[T]) del(fd int) {
	v := t.ref(fd)
	if v == nil {
		return
	}
	var zero T
	*v = zero
	p := &t.pages[fd>>fdPageBits]
	p.live--
	if p.live == 0 && fd>>fdPageBits != len(t.pages)-1 {
		p.slot = nil
	}
}
