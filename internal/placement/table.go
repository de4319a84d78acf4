package placement

// pageBits sets a Table page to 1<<pageBits entries, 1 KB. A run's
// writes land on random sectors, so the bytes it copies grow with the
// page size while the page index shrinks: at 256 entries a table of a
// million entries indexes its pages in 32 KB, and the DSE screening and
// the long sweeps allocated 5% and 12% less than at 1024 entries.
const pageBits = 8

const pageMask = 1<<pageBits - 1

type page [1 << pageBits]uint32

// Table is a copy-on-write view of a shared base slice, such as a
// memoized permutation, split into fixed pages. An entry of a page the
// table never wrote reads the base; the first write into a page copies
// that page from the base into a private one. Reset drops the written
// pages, so the table reads the base again, and keeps them to back the
// table's next writes: a machine that is reset and runs again allocates
// no new pages for the entries its earlier run already wrote.
//
// The base is never written, so tables over one base may be used from
// different goroutines; one table belongs to one goroutine at a time.
type Table struct {
	base  []uint32
	pages []*page  // nil: the page reads base
	dirty []uint32 // indices of the pages written since the last Reset
	spare []*page  // pages Reset detached, reused before allocating
}

// NewTable returns a table whose entry i reads base[i] until it is set.
// The caller must not modify base while the table is in use.
func NewTable(base []uint32) Table {
	return Table{base: base, pages: make([]*page, (len(base)+pageMask)>>pageBits)}
}

// Get returns entry i, which must be below the base's length.
func (t *Table) Get(i uint32) uint32 {
	if p := t.pages[i>>pageBits]; p != nil {
		return p[i&pageMask]
	}
	return t.base[i]
}

// Set writes entry i, which must be below the base's length,
// materializing its page on the first write since construction or the
// last Reset.
func (t *Table) Set(i, v uint32) {
	p := t.pages[i>>pageBits]
	if p == nil {
		p = t.materialize(i >> pageBits)
	}
	p[i&pageMask] = v
}

// materialize gives page pi a private copy of its base entries.
func (t *Table) materialize(pi uint32) *page {
	var p *page
	if n := len(t.spare); n > 0 {
		p, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		p = new(page)
	}
	copy(p[:], t.base[pi<<pageBits:])
	t.pages[pi] = p
	t.dirty = append(t.dirty, pi)
	return p
}

// Reset makes every entry read the base again, in time proportional to
// the pages written since the last Reset.
func (t *Table) Reset() {
	for _, pi := range t.dirty {
		t.spare = append(t.spare, t.pages[pi])
		t.pages[pi] = nil
	}
	t.dirty = t.dirty[:0]
}
