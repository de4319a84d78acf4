package placement

import (
	"fmt"
	"math/bits"
)

// hashMul is the Fibonacci hashing multiplier, 2^32/φ: the top bits of
// i*hashMul spread strided and consecutive indices alike over the slots.
const hashMul = 0x9E3779B9

// minSlots is the overlay's size on its first write, 512 bytes.
const minSlots = 64

// noSlots is the overlay of a table with no written entry, and of a
// dense one: one empty slot, which every probe stops at. Set grows the
// overlay before it would write here, so it is never written.
var noSlots [1]uint64

// Table is a view of a shared base slice, a memoized permutation or
// inverse, that records the run's writes as an overlay: an entry the
// table never wrote reads the base, and a written one reads its slot in
// a small open-addressed table. A slot holds the value in its high half
// and the index plus one in its low half, 0 marking it empty; probing
// is linear from a Fibonacci hash of the index, and the overlay grows
// by doubling so that it is never more than half full.
//
// The overlay is bounded by the size of a dense copy. When doubling it
// would take it past half the bytes of the base, the table copies the
// base once into a private slice, applies the overlay to it, and from
// then on writes that slice. Reset makes every entry read the base
// again, that of another seed's placement if asked, and keeps the
// table's memory, the emptied overlay and the private slice, to back
// the next run's writes: a machine that is reset and runs again
// allocates nothing for writes its earlier run made.
//
// The table holds a reference to its memoized base, so the memo never
// recycles the base while the table reads it. The base is never
// written, so tables over one base may be used from different
// goroutines; one table belongs to one goroutine at a time, and a copy
// of a table shares its reference: only one of them may be reset.
type Table struct {
	slots []uint64 // the overlay: value<<32 | index+1, or 0
	mask  uint32   // len(slots)-1
	shift uint32   // 32 - log2(len(slots)): the hash keeps the top bits
	base  []uint32 // what an entry with no slot reads: shared, or dense
	used  int      // occupied slots

	shared []uint32 // the memoized base: src's value
	dense  []uint32 // private copy of shared; base while the table is dense
	parked []uint64 // the overlay's slots while the table is dense
	src    *entry   // the memo entry the table holds a reference to
}

// PermTable returns a table over the seeded permutation of [0, n):
// entry logical reads the physical slot the placement gives logical
// sector logical until it is set. n must lie in [0, 2^32).
func PermTable(seed uint64, n int) Table {
	return newTable(perm(seed, n))
}

// InverseTable returns a table over the inverse of PermTable(seed, n)'s
// placement restricted to the physical slots below k (0 <= k <= n):
// entry phys reads the logical sector the placement puts at slot phys
// until it is set.
func InverseTable(seed uint64, n, k int) Table {
	return newTable(inverse(seed, n, k))
}

// newTable returns a table over e's value, taking over the reference
// the caller holds.
func newTable(e *entry) Table {
	t := Table{base: e.v, shared: e.v, src: e}
	t.setSlots(noSlots[:])
	return t
}

// Get returns entry i, which must be below the base's length; an index
// past it panics on the base's bounds. Get spells out find's probe,
// since a call would stop it from inlining into the designs' access
// paths, and tests for an empty slot first: index 2^32-1 would
// otherwise match one as key 0.
func (t *Table) Get(i uint32) uint32 {
	for h := i * hashMul >> t.shift; ; h = (h + 1) & t.mask {
		s := t.slots[h]
		if s == 0 {
			return t.base[i]
		}
		if uint32(s) == i+1 {
			return uint32(s >> 32)
		}
	}
}

// Set writes entry i, which must be below the base's length.
func (t *Table) Set(i, v uint32) {
	if i >= uint32(len(t.shared)) {
		panic(fmt.Sprintf("placement: Set(%d) on a table of %d entries", i, len(t.shared)))
	}
	if t.parked != nil {
		t.base[i] = v
		return
	}
	h := t.find(i)
	if t.slots[h] == 0 {
		if 2*(t.used+1) > len(t.slots) {
			if !t.grow() {
				t.base[i] = v
				return
			}
			h = t.find(i)
		}
		t.used++
	}
	t.slots[h] = uint64(v)<<32 | uint64(i+1)
}

// find returns the slot that holds entry i, or the empty slot where it
// would go.
func (t *Table) find(i uint32) uint32 {
	h := i * hashMul >> t.shift
	for s := t.slots[h]; s != 0 && uint32(s) != i+1; s = t.slots[h] {
		h = (h + 1) & t.mask
	}
	return h
}

// grow doubles the overlay, or, if the doubled overlay would take more
// than half the bytes of a dense copy, makes the table dense and reports
// false.
func (t *Table) grow() bool {
	n := max(2*len(t.slots), minSlots)
	if 2*8*n > 4*len(t.shared) {
		t.makeDense()
		return false
	}
	old := t.slots
	t.setSlots(make([]uint64, n))
	for _, s := range old {
		if s != 0 {
			t.slots[t.find(uint32(s)-1)] = s
		}
	}
	return true
}

// setSlots makes s, of a power-of-two length, the overlay.
func (t *Table) setSlots(s []uint64) {
	t.slots, t.mask, t.shift = s, uint32(len(s)-1), 32-uint32(bits.TrailingZeros(uint(len(s))))
}

// makeDense copies the base into the table's private slice, applies the
// overlay and parks it empty, so that entries read and write the slice.
func (t *Table) makeDense() {
	if t.dense == nil {
		t.dense = make([]uint32, len(t.shared))
	}
	copy(t.dense, t.shared)
	for _, s := range t.slots {
		if s != 0 {
			t.dense[uint32(s)-1] = uint32(s >> 32)
		}
	}
	t.parked = t.slots
	if t.used > 0 {
		clear(t.parked)
	}
	t.setSlots(noSlots[:])
	t.base, t.used = t.dense, 0
}

// Reset makes every entry read the base again: the placement of the
// same shape at seed, which is the table's own unless seed's placement
// differs. It empties the overlay in place and keeps it, and the
// private slice of a dense table, which the next switch to dense
// refills from the new base, for the run that follows. A table reset
// to another placement releases its old one, which the memo may then
// recycle, before it takes the new one: its reads stop at the call.
// The zero Table, which reads nothing, stays empty.
func (t *Table) Reset(seed uint64) {
	if t.src != nil && t.src.key.seed != shuffleSeed(seed) {
		k := t.src.key
		release(t.src)
		if k.inverse {
			t.src = inverse(seed, k.n, k.k)
		} else {
			t.src = perm(seed, k.n)
		}
		t.shared = t.src.v
	}
	if t.parked != nil {
		t.setSlots(t.parked)
		t.parked = nil
	} else if t.used > 0 {
		clear(t.slots)
		t.used = 0
	}
	t.base = t.shared
}
