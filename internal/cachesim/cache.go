// Package cachesim provides the set-associative write-back SRAM cache used
// as the shared last-level cache in front of the hybrid memory system
// (Table 1: 8 MB, 16-way, 14-cycle access, non-inclusive non-exclusive),
// and Sets, the true-LRU tag store it shares with the designs' on-chip
// set-associative structures.
package cachesim

import (
	"math/bits"

	"hybridmem/internal/memtypes"
)

// MaxAssoc is the largest associativity an Order can track: one 4-bit
// way index per nibble of a 64-bit word.
const MaxAssoc = 16

// Order is the true-LRU recency order of one set of at most MaxAssoc
// ways, packed a nibble per way: nibble 0 holds the most recently used
// way and nibble assoc-1 the least recently used one. A touch and a
// victim choice are each a few word operations, independent of assoc.
type Order uint64

const (
	nibbles  = 0x1111111111111111
	nibbleHi = 0x8888888888888888
)

// NewOrder returns the order of an untouched set of assoc ways: way 0
// least recent, then way 1, and so on. As long as no line is invalidated
// (sets only empty all at once, on construction or reset), misses then
// fill ways 0, 1, 2, ... and the valid ways are always a prefix of the
// set, so the LRU way is the first invalid way while one exists, and
// otherwise the least recently used valid way.
func NewOrder(assoc int) Order {
	var o Order
	for w := range assoc {
		o |= Order(w) << (4 * uint(assoc-1-w))
	}
	return o
}

// Touch returns the order with way moved to the most recently used
// position and the ways it overtook shifted one position back.
func (o Order) Touch(way int) Order {
	// The lowest zero nibble of o ^ way*0x11… is way's position; the
	// has-zero test cannot misfire below the lowest zero nibble.
	x := uint64(o) ^ uint64(way)*nibbles
	pos := uint(bits.TrailingZeros64((x-nibbles)&^x&nibbleHi)) &^ 3
	return o.moveFront(pos)
}

// Replace returns the least recently used of the set's assoc ways and
// the order with that way made the most recently used.
func (o Order) Replace(assoc int) (int, Order) {
	pos := 4 * uint(assoc-1)
	return int(o>>pos) & 0xf, o.moveFront(pos)
}

// moveFront moves the nibble at bit offset pos to nibble 0, shifting the
// nibbles below it up by one.
func (o Order) moveFront(pos uint) Order {
	w := uint64(o) >> pos & 0xf
	below := uint64(o) & (1<<pos - 1)
	above := uint64(o) &^ (1<<(pos+4) - 1) // a shift of 64 yields 0, so 0 at pos 60
	return Order(above | below<<4 | w)
}

// Dirty is a caller's flag in a tag word. Lookups ignore it, and a hit
// keeps it; a fill replaces the whole word.
const Dirty = 1 << 63

// Sets is a set-associative tag store with true-LRU replacement: one tag
// word per way (a non-zero key below Dirty, 0 meaning invalid) and one
// Order word per set. It is the one replacement policy of the LLC, the
// remap caches, Hybrid2's XTA, Footprint and SILC-FM. A way is emptied
// only by the fill that reuses it, so the valid ways of a set are always
// a prefix, and the LRU way is the first invalid one while one exists.
type Sets struct {
	tags  []uint64 // sets*assoc, indexed set*assoc+way
	order []Order  // per-set recency
	assoc int
}

// NewSets builds an empty store of sets sets of assoc ways; assoc must be
// 1 to MaxAssoc.
func NewSets(sets, assoc int) Sets {
	if sets <= 0 || assoc <= 0 || assoc > MaxAssoc {
		panic("cachesim: a tag store needs sets > 0 and 1 to 16 ways")
	}
	s := Sets{tags: make([]uint64, sets*assoc), order: make([]Order, sets), assoc: assoc}
	s.Reset()
	return s
}

// Reset empties every way and puts every set in NewOrder's order,
// allocating nothing.
func (s *Sets) Reset() {
	clear(s.tags)
	init := NewOrder(s.assoc)
	for i := range s.order {
		s.order[i] = init
	}
}

// Tag returns the tag word of a way; 0 means the way is invalid.
func (s *Sets) Tag(set, way int) uint64 { return s.tags[set*s.assoc+way] }

// MarkDirty sets the Dirty flag of a valid way.
func (s *Sets) MarkDirty(set, way int) { s.tags[set*s.assoc+way] |= Dirty }

// find returns the way of set holding key, or -1: the store's one scan.
func (s *Sets) find(set int, key uint64) int {
	base := set * s.assoc
	for i, t := range s.tags[base : base+s.assoc : base+s.assoc] {
		if t&^Dirty == key {
			return i
		}
	}
	return -1
}

// Lookup returns the way of set holding key, made the most recently
// used, or hit false without changing the set.
func (s *Sets) Lookup(set int, key uint64) (way int, hit bool) {
	if way = s.find(set, key); way < 0 {
		return 0, false
	}
	s.order[set] = s.order[set].Touch(way)
	return way, true
}

// Fill puts key in the least recently used way of set, made the most
// recently used, and returns that way and the tag word it held (0 when
// it was invalid). The caller makes sure key is not in the set.
func (s *Sets) Fill(set int, key uint64) (way int, old uint64) {
	o := &s.order[set]
	way, *o = o.Replace(s.assoc)
	t := &s.tags[set*s.assoc+way]
	old, *t = *t, key
	return way, old
}

// Access is Lookup, then Fill on a miss: it returns the way now holding
// key, whether it hit, and on a miss the tag word the fill displaced.
// Fill is spelled out so that a miss makes no second call.
func (s *Sets) Access(set int, key uint64) (way int, old uint64, hit bool) {
	o := &s.order[set]
	if way = s.find(set, key); way >= 0 {
		*o = o.Touch(way)
		return way, 0, true
	}
	way, *o = o.Replace(s.assoc)
	t := &s.tags[set*s.assoc+way]
	old, *t = *t, key
	return way, old, false
}

// Victim describes a line evicted by an allocation.
type Victim struct {
	Addr  memtypes.Addr // base address of the evicted line
	Dirty bool
}

// Cache is a single-level set-associative cache with true-LRU replacement
// and write-allocate/write-back policy. It is a functional model: timing
// is the caller's concern (the driver adds the fixed access latency).
//
// Its Sets key is a line's tag +1 (lines are at least 4 B, so the key
// stays below Dirty), and Dirty marks a written line.
type Cache struct {
	sets     Sets
	setShift uint
	setBits  uint
	setMask  uint64

	Accesses uint64
	Misses   uint64
	Evicts   uint64
}

// New builds a cache of sizeBytes capacity. sizeBytes must be a multiple
// of assoc*lineBytes, the resulting set count must be a power of two, and
// assoc must be at most MaxAssoc.
func New(sizeBytes, assoc, lineBytes int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 || lineBytes <= 0 {
		panic("cachesim: non-positive geometry")
	}
	if assoc > MaxAssoc {
		panic("cachesim: associativity above 16 not supported")
	}
	sets := sizeBytes / (assoc * lineBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("cachesim: set count must be a power of two")
	}
	if lineBytes < 4 || lineBytes&(lineBytes-1) != 0 {
		panic("cachesim: line size must be a power of two of at least 4 bytes")
	}
	return &Cache{
		sets:     NewSets(sets, assoc),
		setShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
	}
}

// Reset returns the cache to New's state: every way invalid, every set
// in NewOrder's order and the counters zero, allocating nothing.
func (c *Cache) Reset() {
	c.sets.Reset()
	c.Accesses, c.Misses, c.Evicts = 0, 0, 0
}

// Access looks up addr, allocating on a miss. It returns whether the
// access hit and, on a miss that displaced a valid line, the victim.
func (c *Cache) Access(addr memtypes.Addr, write bool) (hit bool, victim Victim, evicted bool) {
	c.Accesses++
	blk := uint64(addr) >> c.setShift
	set := int(blk & c.setMask)
	way, old, hit := c.sets.Access(set, blk>>c.setBits+1)
	if write {
		c.sets.MarkDirty(set, way)
	}
	if hit {
		return true, Victim{}, false
	}
	c.Misses++
	if old != 0 {
		c.Evicts++
		victimBlk := ((old&^Dirty-1)<<c.setBits | uint64(set)) << c.setShift
		victim = Victim{Addr: memtypes.Addr(victimBlk), Dirty: old&Dirty != 0}
		evicted = true
	}
	return false, victim, evicted
}
