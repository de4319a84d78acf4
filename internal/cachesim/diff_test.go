package cachesim

// Differential test of the packed-recency cache against the stamp model
// it replaced: per-way LRU stamps, victim = first invalid way, else the
// lowest-indexed minimum stamp. The two must agree on every access.

import (
	"math/bits"
	"math/rand"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
)

// stampCache is the stamp-based cache the packed one replaced, kept as
// the reference model.
type stampCache struct {
	tags     []uint64
	lrus     []uint64
	valid    []uint64
	dirty    []uint64
	assoc    int
	setShift uint
	setBits  uint
	setMask  uint64
	fullMask uint64
	clock    uint64

	Accesses, Misses, Evicts uint64
}

func newStampCache(sizeBytes, assoc, lineBytes int) *stampCache {
	sets := sizeBytes / (assoc * lineBytes)
	return &stampCache{
		tags:     make([]uint64, sets*assoc),
		lrus:     make([]uint64, sets*assoc),
		valid:    make([]uint64, sets),
		dirty:    make([]uint64, sets),
		assoc:    assoc,
		setShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		fullMask: 1<<uint(assoc) - 1,
	}
}

func (c *stampCache) Access(addr memtypes.Addr, write bool) (hit bool, victim Victim, evicted bool) {
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
	var idx int
	if vm != c.fullMask {
		idx = bits.TrailingZeros64(^vm)
	} else {
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

// TestMatchesStampModel drives both caches with over a million random
// reads and writes per run of the test, over footprints from 1x to 64x
// the capacity, and compares every result, the counters and the touched
// set's contents after each access.
func TestMatchesStampModel(t *testing.T) {
	const sets, line, perRun = 32, 64, 30_000
	rng := rand.New(rand.NewSource(1))
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		for f := 1; f <= 64; f *= 2 {
			got := New(sets*assoc*line, assoc, line)
			want := newStampCache(sets*assoc*line, assoc, line)
			lines := uint64(f * sets * assoc)
			// A high base exercises tags far above the set bits.
			base := rng.Uint64() >> 16 &^ (1<<32 - 1)
			for n := 0; n < perRun; n++ {
				addr := memtypes.Addr(base + rng.Uint64()%lines*line + rng.Uint64()%line)
				write := rng.Intn(3) == 0
				gh, gv, ge := got.Access(addr, write)
				wh, wv, we := want.Access(addr, write)
				if gh != wh || gv != wv || ge != we {
					t.Fatalf("assoc %d footprint %dx access %d (%#x, write %v): got (%v, %+v, %v), want (%v, %+v, %v)",
						assoc, f, n, addr, write, gh, gv, ge, wh, wv, we)
				}
				if got.Accesses != want.Accesses || got.Misses != want.Misses || got.Evicts != want.Evicts {
					t.Fatalf("assoc %d footprint %dx access %d: counters %d/%d/%d, want %d/%d/%d", assoc, f, n,
						got.Accesses, got.Misses, got.Evicts, want.Accesses, want.Misses, want.Evicts)
				}
				set := int(uint64(addr) / line % sets)
				for w := 0; w < assoc; w++ {
					g, i := got.sets.Tag(set, w), set*assoc+w
					valid := want.valid[set]>>uint(w)&1 != 0
					dirty := want.dirty[set]>>uint(w)&1 != 0
					if (g != 0) != valid || valid && (g&^Dirty != want.tags[i]+1 || (g&Dirty != 0) != dirty) {
						t.Fatalf("assoc %d footprint %dx access %d: set %d way %d holds %#x, want valid %v tag %#x dirty %v",
							assoc, f, n, set, w, g, valid, want.tags[i], dirty)
					}
				}
			}
		}
	}
}

// TestOrderMatchesList checks Touch and Replace against an explicit
// recency list for every associativity an Order supports.
func TestOrderMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for assoc := 1; assoc <= MaxAssoc; assoc++ {
		o := NewOrder(assoc)
		list := make([]int, 0, assoc) // most recent first
		for w := assoc - 1; w >= 0; w-- {
			list = append(list, w)
		}
		for n := 0; n < 2000; n++ {
			var w int
			if rng.Intn(2) == 0 {
				w = rng.Intn(assoc)
				o = o.Touch(w)
			} else {
				w, o = o.Replace(assoc)
				if want := list[assoc-1]; w != want {
					t.Fatalf("assoc %d: Replace chose way %d, want %d", assoc, w, want)
				}
			}
			for i, x := range list {
				if x == w {
					copy(list[1:i+1], list[:i])
					list[0] = w
					break
				}
			}
			for i, x := range list {
				if got := int(o>>(4*uint(i))) & 0xf; got != x {
					t.Fatalf("assoc %d op %d: position %d holds way %d, want %d", assoc, n, i, got, x)
				}
			}
			if assoc < MaxAssoc && o>>(4*uint(assoc)) != 0 {
				t.Fatalf("assoc %d: order %#x spills past its ways", assoc, uint64(o))
			}
		}
	}
}

// BenchmarkLLCAccess times the LLC at scale 16 (512 KB, 16-way) on a
// miss-heavy stream: uniform lines over 16x the capacity, a third writes.
func BenchmarkLLCAccess(b *testing.B) {
	size := config.PaperLLCBytes / config.DefaultScale
	c := New(size, config.LLCAssoc, memtypes.CPULineBytes)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]memtypes.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = memtypes.Addr(rng.Intn(16*size)) &^ (memtypes.CPULineBytes - 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i%3 == 0)
	}
}
