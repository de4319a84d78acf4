// Package cachesim provides the set-associative write-back SRAM cache used
// as the shared last-level cache in front of the hybrid memory system
// (Table 1: 8 MB, 16-way, 14-cycle access, non-inclusive non-exclusive).
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

// Victim describes a line evicted by an allocation.
type Victim struct {
	Addr  memtypes.Addr // base address of the evicted line
	Dirty bool
}

// dirtyBit marks a dirty line in its tag word. Lines are at least 4 B,
// so a tag is below 2^62 and tag+1 never reaches it.
const dirtyBit = 1 << 63

// Cache is a single-level set-associative cache with true-LRU replacement
// and write-allocate/write-back policy. It is a functional model: timing
// is the caller's concern (the driver adds the fixed access latency).
//
// Each way is one tag word (tag+1, so 0 means invalid, with the dirty
// flag in bit 63) and each set one Order word, so a lookup compares the
// set's tags and a hit or a victim choice costs O(1) word operations.
type Cache struct {
	tags     []uint64 // sets*assoc, indexed set*assoc+way
	order    []Order  // per-set recency
	assoc    int
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
	c := &Cache{
		tags:     make([]uint64, sets*assoc),
		order:    make([]Order, sets),
		assoc:    assoc,
		setShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
	}
	c.Reset()
	return c
}

// Reset returns the cache to New's state: every way invalid, every set
// in NewOrder's order and the counters zero. It clears the whole tag
// array, as New's allocation does, but allocates nothing.
func (c *Cache) Reset() {
	clear(c.tags)
	init := NewOrder(c.assoc)
	for i := range c.order {
		c.order[i] = init
	}
	c.Accesses, c.Misses, c.Evicts = 0, 0, 0
}

// Access looks up addr, allocating on a miss. It returns whether the
// access hit and, on a miss that displaced a valid line, the victim.
func (c *Cache) Access(addr memtypes.Addr, write bool) (hit bool, victim Victim, evicted bool) {
	c.Accesses++
	blk := uint64(addr) >> c.setShift
	set := blk & c.setMask
	key := blk>>c.setBits + 1
	base := int(set) * c.assoc
	ways := c.tags[base : base+c.assoc : base+c.assoc]
	for i, t := range ways {
		if t&^dirtyBit == key {
			if write {
				ways[i] = t | dirtyBit
			}
			c.order[set] = c.order[set].Touch(i)
			return true, Victim{}, false
		}
	}

	c.Misses++
	i, o := c.order[set].Replace(c.assoc)
	c.order[set] = o
	if t := ways[i]; t != 0 {
		c.Evicts++
		victimBlk := ((t&^dirtyBit-1)<<c.setBits | set) << c.setShift
		victim = Victim{Addr: memtypes.Addr(victimBlk), Dirty: t&dirtyBit != 0}
		evicted = true
	}
	if write {
		key |= dirtyBit
	}
	ways[i] = key
	return false, victim, evicted
}
