package dramcache

// Differential test of the paged tag store against the flat-array cache
// it replaced: tag, use and LRU words in sets*assoc arrays allocated at
// construction, and a touched-slot list for Finish and Reset. The two
// must agree on every access's latency, stats and victim, on Finish and
// across Reset.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// flatListed marks a flat-cache slot already on its touched list.
const (
	flatListed = 1 << 61
	flatMask   = flatListed - 1
)

// flatCache is the flat-array cache the paged one replaced, kept as the
// reference model.
type flatCache struct {
	cfg    Config
	nm, fm *memsys.Device

	tags    []uint64
	lrus    []uint64
	used    []uint64
	touched []int32

	assoc    int
	shift    uint
	setBits  uint
	setMask  uint64
	lineMask uint64
	clock    uint64
	stats    memtypes.MemStats
	metaBase memtypes.Addr
}

func newFlatCache(cfg Config, nm, fm *memsys.Device) *flatCache {
	sets := int(cfg.NMBytes) / (cfg.Assoc * cfg.LineBytes)
	c := &flatCache{
		cfg:      cfg,
		nm:       nm,
		fm:       fm,
		tags:     make([]uint64, sets*cfg.Assoc),
		used:     make([]uint64, sets*cfg.Assoc),
		assoc:    cfg.Assoc,
		shift:    uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		lineMask: uint64(cfg.LineBytes - 1),
		metaBase: memtypes.Addr(cfg.NMBytes),
	}
	if cfg.Assoc > 1 {
		c.lrus = make([]uint64, sets*cfg.Assoc)
	}
	return c
}

func (c *flatCache) Reset() {
	for _, idx := range c.touched {
		c.tags[idx], c.used[idx] = 0, 0
		if c.lrus != nil {
			c.lrus[idx] = 0
		}
	}
	c.touched = c.touched[:0]
	c.clock = 0
	c.stats = memtypes.MemStats{}
}

func (c *flatCache) Stats() *memtypes.MemStats {
	return memsys.WithTraffic(&c.stats, c.nm, c.fm)
}

func (c *flatCache) nmAddr(set, way int) memtypes.Addr {
	return memtypes.Addr((set*c.assoc + way) * c.cfg.LineBytes)
}

func (c *flatCache) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	c.clock++
	now += c.cfg.TagLatency

	blk := uint64(addr) >> c.shift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	chunk := uint(uint64(addr) & c.lineMask >> 6)
	base := set * c.assoc

	for i := 0; i < c.assoc; i++ {
		w := c.tags[base+i]
		if w&tagValid != 0 && w&flatMask == tag {
			if c.assoc > 1 {
				c.lrus[base+i] = c.clock
			}
			c.used[base+i] |= 1 << chunk
			if write {
				c.tags[base+i] = w | tagDirty
			}
			c.stats.ServedNM++
			sz := 64
			if c.cfg.TADBytes > 0 {
				sz = c.cfg.TADBytes
			}
			return c.nm.Access(now, c.nmAddr(set, i)+memtypes.Addr(chunk*64), sz, write)
		}
	}

	c.stats.ServedFM++
	victim := 0
	if c.assoc > 1 {
		victim = -1
		minI := 0
		for i := 0; i < c.assoc; i++ {
			if c.tags[base+i]&tagValid == 0 {
				victim = i
				break
			}
			if c.lrus[base+i] < c.lrus[base+minI] {
				minI = i
			}
		}
		if victim < 0 {
			victim = minI
		}
	}
	slot := c.nmAddr(set, victim)
	if c.tags[base+victim]&tagValid != 0 {
		c.evict(now, set, victim)
	}
	if c.cfg.TADBytes > 0 {
		now = c.nm.AccessAs(memtypes.Metadata, now, slot, c.cfg.TADBytes, false)
	}
	if c.cfg.MetaPerMiss {
		now = c.nm.AccessAs(memtypes.Metadata, now, c.metaBase+memtypes.Addr(set*64), 64, false)
		c.nm.AccessBG(memtypes.Metadata, now, c.metaBase+memtypes.Addr(set*64), 64, true)
	}
	lineBase := memtypes.Addr(blk << c.shift)
	fetchDone, fullDone := c.fm.AccessCriticalFirst(now, lineBase, c.cfg.LineBytes, 64)
	c.stats.FetchedBytes += uint64(c.cfg.LineBytes)
	c.nm.AccessBG(memtypes.Fill, fullDone, slot, c.cfg.LineBytes, true)

	newTag := tag | tagValid | flatListed
	if write {
		newTag |= tagDirty
	}
	if c.tags[base+victim]&flatListed == 0 {
		c.touched = append(c.touched, int32(base+victim))
	}
	c.tags[base+victim] = newTag
	c.used[base+victim] = 1 << chunk
	if c.assoc > 1 {
		c.lrus[base+victim] = c.clock
	}
	return fetchDone
}

func (c *flatCache) evict(now memtypes.Tick, set, way int) {
	idx := set*c.assoc + way
	w := c.tags[idx]
	c.stats.UsedBytes += uint64(bits.OnesCount64(c.used[idx])) * 64
	c.stats.Evictions++
	if w&tagDirty != 0 {
		rd := c.nm.AccessBG(memtypes.Writeback, now, c.nmAddr(set, way), c.cfg.LineBytes, false)
		victimAddr := memtypes.Addr(((w&flatMask)<<c.setBits | uint64(set)) << c.shift)
		c.fm.AccessBG(memtypes.Writeback, rd, victimAddr, c.cfg.LineBytes, true)
	}
	c.tags[idx] = w &^ tagValid
}

func (c *flatCache) Finish(memtypes.Tick) {
	for _, idx := range c.touched {
		if c.tags[idx]&tagValid != 0 {
			c.stats.UsedBytes += uint64(bits.OnesCount64(c.used[idx])) * 64
			c.used[idx] = 0
		}
	}
}

// way reads a flat slot as a paged way: without the listed flag, and
// with a zero LRU word where a direct-mapped flat cache keeps none.
func (c *flatCache) way(set, way int) wayState {
	i := set*c.assoc + way
	s := wayState{tag: c.tags[i] &^ flatListed, used: c.used[i]}
	if c.lrus != nil {
		s.lru = c.lrus[i]
	}
	return s
}

// op is one access of a differential stream.
type op struct {
	addr  memtypes.Addr
	write bool
	gap   memtypes.Tick
}

// diffStreams returns the named access streams for a geometry: uniform
// random traffic, a conflict storm on one set, one access per page, and
// a write storm.
func diffStreams(cfg Config, rng *rand.Rand) map[string][]op {
	sets := int(cfg.NMBytes) / (cfg.Assoc * cfg.LineBytes)
	line := memtypes.Addr(cfg.LineBytes)
	span := memtypes.Addr(sets) * line // addresses span apart share a set
	offset := func() memtypes.Addr { return memtypes.Addr(rng.Int63n(int64(line))) }
	const n = 3000
	s := map[string][]op{}
	for i := 0; i < n; i++ {
		s["random"] = append(s["random"], op{
			addr: memtypes.Addr(rng.Int63n(4 * int64(cfg.NMBytes))), write: rng.Intn(4) == 0,
			gap: memtypes.Tick(rng.Intn(40)),
		})
		s["conflict"] = append(s["conflict"], op{
			addr: memtypes.Addr(rng.Intn(3*cfg.Assoc))*span + offset(), write: rng.Intn(2) == 0,
			gap: memtypes.Tick(rng.Intn(8)),
		})
		s["writes"] = append(s["writes"], op{
			addr: memtypes.Addr(rng.Int63n(2 * int64(cfg.NMBytes))), write: true,
			gap: memtypes.Tick(rng.Intn(4)),
		})
	}
	setsPerPage := 1 << (bits.Len(uint(pageWays/cfg.Assoc)) - 1)
	for pass := 0; pass < 3; pass++ {
		for set := 0; set < sets; set += setsPerPage {
			s["perpage"] = append(s["perpage"], op{
				addr:  memtypes.Addr(set)*line + memtypes.Addr(pass*cfg.Assoc+rng.Intn(2))*span + offset(),
				write: pass == 1, gap: 1,
			})
		}
	}
	return s
}

// TestPagedMatchesFlat drives the paged cache and the flat reference
// through the same streams, with Finish, Reset and a rerun between
// streams, over line sizes 64 B-64 KB at associativity 1, 16 and 32.
func TestPagedMatchesFlat(t *testing.T) {
	for _, line := range []int{64, 256, 1024, 4096, 16384, 65536} {
		for _, assoc := range []int{1, 16, 32} {
			cfg := Config{Name: "X", NMBytes: 4 << 20, LineBytes: line, Assoc: assoc,
				TagLatency: 4, MetaPerMiss: assoc == 16}
			if assoc == 1 {
				cfg.TADBytes = 72
			}
			t.Run(fmt.Sprintf("line%d/assoc%d", line, assoc), func(t *testing.T) {
				diffGeometry(t, cfg)
			})
		}
	}
}

func diffGeometry(t *testing.T, cfg Config) {
	nm, fm := devices()
	got := New(cfg, nm, fm)
	rnm, rfm := devices()
	want := newFlatCache(cfg, rnm, rfm)
	streams := diffStreams(cfg, rand.New(rand.NewSource(int64(cfg.LineBytes*cfg.Assoc))))
	sameWays := func(when string, set int) {
		t.Helper()
		for w := 0; w < cfg.Assoc; w++ {
			if g, r := readWay(got, set, w), want.way(set, w); g != r {
				t.Fatalf("%s: set %d way %d = %+v, reference %+v", when, set, w, g, r)
			}
		}
	}
	sameAll := func(when string) {
		t.Helper()
		for set := 0; set < got.sets; set++ {
			sameWays(when, set)
		}
		if g, r := *got.Stats(), *want.Stats(); g != r {
			t.Fatalf("%s: stats %+v, reference %+v", when, g, r)
		}
	}
	for cycle := 0; cycle < 2; cycle++ {
		for _, name := range []string{"random", "conflict", "perpage", "writes"} {
			var now memtypes.Tick
			for i, o := range streams[name] {
				now += o.gap
				g, r := got.Access(now, o.addr, o.write), want.Access(now, o.addr, o.write)
				when := fmt.Sprintf("cycle %d %s op %d (%#x write=%v)", cycle, name, i, o.addr, o.write)
				if g != r {
					t.Fatalf("%s: latency %d, reference %d", when, g, r)
				}
				if g, r := *got.Stats(), *want.Stats(); g != r {
					t.Fatalf("%s: stats %+v, reference %+v", when, g, r)
				}
				sameWays(when, int(uint64(o.addr)>>got.shift&got.setMask))
				now = max(now, g)
			}
			if name == "conflict" && got.stats.Evictions == 0 {
				t.Fatalf("cycle %d: conflict storm evicted nothing", cycle)
			}
			got.Finish(now)
			want.Finish(now)
			sameAll(fmt.Sprintf("cycle %d %s: Finish", cycle, name))
			got.Reset(0)
			want.Reset()
			for _, d := range []*memsys.Device{nm, fm, rnm, rfm} {
				d.Reset()
			}
			sameAll(fmt.Sprintf("cycle %d %s: Reset", cycle, name))
		}
	}
}
