// Package cachesim provides the set-associative write-back SRAM cache used
// as the shared last-level cache in front of the hybrid memory system
// (Table 1: 8 MB, 16-way, 14-cycle access, non-inclusive non-exclusive).
package cachesim

import (
	"math/bits"

	"hybridmem/internal/memtypes"
)

// Victim describes a line evicted by an allocation.
type Victim struct {
	Addr  memtypes.Addr // base address of the evicted line
	Dirty bool
}

// Cache is a single-level set-associative cache with true-LRU replacement
// and write-allocate/write-back policy. It is a functional model: timing
// is the caller's concern (the driver adds the fixed access latency).
//
// State is laid out struct-of-arrays: per-way tags and LRU stamps in flat
// slices plus one valid/dirty bitmask word per set, so a lookup touches a
// couple of cache lines instead of a line per way.
type Cache struct {
	tags      []uint64 // sets*assoc, indexed set*assoc+way
	lrus      []uint64 // sets*assoc, last-touch clock per way
	valid     []uint64 // per-set bitmask of valid ways
	dirty     []uint64 // per-set bitmask of dirty ways
	assoc     int
	sets      int
	lineBytes int
	setShift  uint
	setBits   uint
	setMask   uint64
	fullMask  uint64
	clock     uint64

	Accesses uint64
	Misses   uint64
	Evicts   uint64
}

// New builds a cache of sizeBytes capacity. sizeBytes must be a multiple
// of assoc*lineBytes, the resulting set count must be a power of two, and
// assoc must be at most 64 (one bitmask word per set).
func New(sizeBytes, assoc, lineBytes int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 || lineBytes <= 0 {
		panic("cachesim: non-positive geometry")
	}
	if assoc > 64 {
		panic("cachesim: associativity above 64 not supported")
	}
	sets := sizeBytes / (assoc * lineBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("cachesim: set count must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes {
		panic("cachesim: line size must be a power of two")
	}
	fullMask := ^uint64(0)
	if assoc < 64 {
		fullMask = 1<<uint(assoc) - 1
	}
	return &Cache{
		tags:      make([]uint64, sets*assoc),
		lrus:      make([]uint64, sets*assoc),
		valid:     make([]uint64, sets),
		dirty:     make([]uint64, sets),
		assoc:     assoc,
		sets:      sets,
		lineBytes: lineBytes,
		setShift:  shift,
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		fullMask:  fullMask,
	}
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Access looks up addr, allocating on a miss. It returns whether the
// access hit and, on a miss that displaced a valid line, the victim.
func (c *Cache) Access(addr memtypes.Addr, write bool) (hit bool, victim Victim, evicted bool) {
	c.Accesses++
	c.clock++
	blk := uint64(addr) >> c.setShift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	base := set * c.assoc
	vm := c.valid[set]
	for m := vm; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.tags[base+i] == tag {
			c.lrus[base+i] = c.clock
			if write {
				c.dirty[set] |= 1 << uint(i)
			}
			return true, Victim{}, false
		}
	}

	c.Misses++
	// Victim choice matches the AoS model exactly: the first invalid way
	// when one exists, else the lowest-indexed way with the minimum LRU
	// stamp.
	var idx int
	if vm != c.fullMask {
		idx = bits.TrailingZeros64(^vm)
	} else {
		idx = 0
		for i := 1; i < c.assoc; i++ {
			if c.lrus[base+i] < c.lrus[base+idx] {
				idx = i
			}
		}
		c.Evicts++
		victimBlk := (c.tags[base+idx]<<c.setBits | uint64(set)) << c.setShift
		victim = Victim{Addr: memtypes.Addr(victimBlk), Dirty: c.dirty[set]&(1<<uint(idx)) != 0}
		evicted = true
	}
	c.valid[set] |= 1 << uint(idx)
	c.tags[base+idx] = tag
	if write {
		c.dirty[set] |= 1 << uint(idx)
	} else {
		c.dirty[set] &^= 1 << uint(idx)
	}
	c.lrus[base+idx] = c.clock
	return false, victim, evicted
}

// Contains reports whether addr is currently resident (no LRU update).
func (c *Cache) Contains(addr memtypes.Addr) bool {
	blk := uint64(addr) >> c.setShift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	base := set * c.assoc
	for m := c.valid[set]; m != 0; m &= m - 1 {
		if c.tags[base+bits.TrailingZeros64(m)] == tag {
			return true
		}
	}
	return false
}
