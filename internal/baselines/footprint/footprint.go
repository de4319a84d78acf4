// Package footprint implements the Footprint Cache (Jevdjic, Volos,
// Falsafi, ISCA'13), the §2.1 design that tackles the over-fetch of
// large DRAM-cache lines: data is allocated at page (2 KB) granularity
// with on-chip tags, but on allocation only the lines the page's
// *footprint* — the set of lines used during its previous residency — is
// fetched, plus the demanded line. Remaining lines are demand-fetched on
// first touch. On eviction, the page's observed footprint is stored in a
// history table keyed by page address and seeds the next allocation.
package footprint

import (
	"math/bits"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes the footprint cache.
type Config struct {
	NMBytes    uint64
	PageBytes  int // footprint page (2 KB in the original design)
	Assoc      int
	HistoryMax int // bounded footprint-history table entries
}

// Default returns the standard configuration over all of NM.
func Default(nmBytes uint64) Config {
	return Config{NMBytes: nmBytes, PageBytes: 2048, Assoc: 16, HistoryMax: 1 << 16}
}

// entry is a page's line state; its tag, valid bit and recency live in
// the cache's cachesim.Sets. An invalid way's vectors are all zero.
type entry struct {
	validVec uint32 // per-64B-line presence
	dirtyVec uint32
	usedVec  uint32 // footprint observed this residency
}

// Cache implements memtypes.MemorySystem.
type Cache struct {
	cfg     Config
	nm, fm  *memsys.Device
	tags    cachesim.Sets // page tag +1 per way, LRU order per set
	entries []entry       // indexed set*Assoc+way, as tags' ways
	sets    int
	history map[uint64]uint32 // page -> footprint of last residency
	stats   memtypes.MemStats
}

// New builds the footprint cache over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *Cache {
	sets := int(cfg.NMBytes) / (cfg.Assoc * cfg.PageBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("footprint: set count must be a positive power of two")
	}
	if cfg.PageBytes/memtypes.CPULineBytes > 32 {
		panic("footprint: pages larger than 32 lines unsupported")
	}
	return &Cache{
		cfg:     cfg,
		nm:      nm,
		fm:      fm,
		tags:    cachesim.NewSets(sets, cfg.Assoc),
		entries: make([]entry, sets*cfg.Assoc),
		sets:    sets,
		history: make(map[uint64]uint32, 4096),
	}
}

// Reset implements memtypes.Resetter: it invalidates every page and
// forgets the footprint history.
func (c *Cache) Reset(uint64) {
	c.tags.Reset()
	clear(c.entries)
	clear(c.history)
	c.stats = memtypes.MemStats{}
}

// Name implements MemorySystem.
func (c *Cache) Name() string { return "FOOTPRINT" }

// Stats implements MemorySystem.
func (c *Cache) Stats() *memtypes.MemStats { return memsys.WithTraffic(&c.stats, c.nm, c.fm) }

func (c *Cache) nmAddr(set, way int, line uint) memtypes.Addr {
	return memtypes.Addr((set*c.cfg.Assoc+way)*c.cfg.PageBytes) + memtypes.Addr(line)*64
}

// Access implements MemorySystem.
func (c *Cache) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	page := uint64(addr) / uint64(c.cfg.PageBytes)
	set := int(page % uint64(c.sets))
	line := uint(uint64(addr) % uint64(c.cfg.PageBytes) / 64)
	way, old, hit := c.tags.Access(set, page/uint64(c.sets)+1)
	w := &c.entries[set*c.cfg.Assoc+way]

	if hit {
		w.usedVec |= 1 << line
		if w.validVec&(1<<line) != 0 { // line present
			c.stats.ServedNM++
			if write {
				w.dirtyVec |= 1 << line
			}
			return c.nm.Access(now, c.nmAddr(set, way, line), 64, write)
		}
		// Page present, line outside the predicted footprint:
		// demand-fetch just this line.
		c.stats.ServedFM++
		done := c.fm.Access(now, memtypes.Addr(page*uint64(c.cfg.PageBytes))+memtypes.Addr(line)*64, 64, false)
		c.nm.AccessBG(memtypes.Fill, done, c.nmAddr(set, way, line), 64, true)
		c.stats.FetchedBytes += 64
		w.validVec |= 1 << line
		if write {
			w.dirtyVec |= 1 << line
		}
		return done
	}

	// Page miss: evict the LRU way's page, allocate, fetch the predicted
	// footprint (or just the demanded line on a cold page).
	c.stats.ServedFM++
	if old != 0 {
		c.evict(now, set, way, old-1)
	}
	fp := c.history[page] | 1<<line
	pageBase := memtypes.Addr(page * uint64(c.cfg.PageBytes))

	// Demanded line first (critical), predicted lines in the background.
	done := c.fm.Access(now, pageBase+memtypes.Addr(line)*64, 64, false)
	c.nm.AccessBG(memtypes.Fill, done, c.nmAddr(set, way, line), 64, true)
	fetched := uint64(64)
	for m := fp &^ (1 << line); m != 0; m &= m - 1 {
		l := uint(bits.TrailingZeros32(m))
		rd := c.fm.AccessBG(memtypes.Fill, now, pageBase+memtypes.Addr(l)*64, 64, false)
		c.nm.AccessBG(memtypes.Fill, rd, c.nmAddr(set, way, l), 64, true)
		fetched += 64
	}
	c.stats.FetchedBytes += fetched

	w.validVec = fp
	w.usedVec = 1 << line
	w.dirtyVec = 0
	if write {
		w.dirtyVec = 1 << line
	}
	return done
}

// evict writes dirty lines back and records the observed footprint of
// the page whose tag a way held.
func (c *Cache) evict(now memtypes.Tick, set, way int, tag uint64) {
	w := &c.entries[set*c.cfg.Assoc+way]
	page := tag*uint64(c.sets) + uint64(set)
	pageBase := memtypes.Addr(page * uint64(c.cfg.PageBytes))
	for m := w.dirtyVec; m != 0; m &= m - 1 {
		l := uint(bits.TrailingZeros32(m))
		rd := c.nm.AccessBG(memtypes.Writeback, now, c.nmAddr(set, way, l), 64, false)
		c.fm.AccessBG(memtypes.Writeback, rd, pageBase+memtypes.Addr(l)*64, 64, true)
	}
	c.stats.UsedBytes += uint64(bits.OnesCount32(w.usedVec)) * 64
	c.stats.Evictions++
	if len(c.history) >= c.cfg.HistoryMax {
		clear(c.history)
	}
	c.history[page] = w.usedVec
}

// Finish credits resident pages' use vectors (wasted-fetch accounting);
// an invalid way's vector is zero.
func (c *Cache) Finish(memtypes.Tick) {
	for i := range c.entries {
		w := &c.entries[i]
		c.stats.UsedBytes += uint64(bits.OnesCount32(w.usedVec)) * 64
		w.usedVec = 0
	}
}
