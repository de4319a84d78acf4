// Package chameleon implements the Chameleon reconfigurable hybrid memory
// (Kotra et al., MICRO'18) as evaluated in the Hybrid2 paper: a PoM-style
// congruence-group organization with competing counters deciding swaps
// within each group (K = 14 for the evaluated memory configuration), plus
// a cache-mode slice of NM equal to the capacity Hybrid2 spends on its
// DRAM cache (§5: "we allow the same NM capacity our design uses as a
// DRAM cache to be used in Chameleon's cache mode").
//
// Simplifications, documented per DESIGN.md: the cache-mode slice is a
// direct-mapped 256 B-line cache serving FM-resident sectors; stale cache
// lines of a just-migrated sector age out naturally (the simulator models
// timing and traffic, not data contents). The OS/ISA cooperation of
// Chameleon (ISA-Alloc/ISA-Free) is outside the scope of the paper's
// comparison and is not modelled, as in the paper.
package chameleon

import (
	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes Chameleon.
type Config struct {
	SectorBytes       int
	NMBytes, FMBytes  uint64
	CacheBytes        uint64 // cache-mode slice (Hybrid2's DRAM-cache size)
	CacheLineBytes    int
	Threshold         int // competing-counter swap threshold (paper: K=14)
	RemapCacheEntries int
	Seed              uint64
}

// Default returns the paper's Chameleon configuration.
func Default(nmBytes, fmBytes, cacheBytes uint64, remapEntries int, seed uint64) Config {
	return Config{
		SectorBytes: config.SectorBytes,
		NMBytes:     nmBytes,
		FMBytes:     fmBytes,
		CacheBytes:  cacheBytes,
		// Chameleon manages NM at PoM's 2 KB segment granularity, so its
		// cache-mode slice fills whole segments.
		CacheLineBytes:    config.SectorBytes,
		Threshold:         14,
		RemapCacheEntries: remapEntries,
		Seed:              seed,
	}
}

// installThreshold is the reuse count a segment needs before the cache
// slice installs it (full-segment fill).
const installThreshold = 2

// segCache is the cache-mode slice: a fully associative sector cache over
// the reserved NM region. Full associativity comes for free from the
// design's remap indirection; slots are recycled FIFO. Segments are only
// installed after showing reuse (installThreshold touches), so one-pass
// streams never earn a fill.
type segCache struct {
	slots   []uint64 // slot -> installed segment+1 (0 free)
	dirty   []bool
	where   map[uint64]int   // segment -> slot
	touches map[uint64]uint8 // reuse filter (bounded, cleared when full)
	fifo    int
}

func newSegCache(slots int) *segCache {
	return &segCache{
		slots:   make([]uint64, slots),
		dirty:   make([]bool, slots),
		where:   make(map[uint64]int, slots),
		touches: make(map[uint64]uint8, 4096),
	}
}

// Chameleon implements memtypes.MemorySystem.
type Chameleon struct {
	cfg   Config
	nm    *memsys.Device
	fm    *memsys.Device
	stats memtypes.MemStats

	g       migcommon.Groups // one group per flat NM segment
	cand    []uint8
	ctr     []int16
	lastSeg uint32 // globally last-accessed sector (episode counting)
	// countedGrps is every group whose competing counter left its
	// initial (no candidate) state this run, once each, for Reset. Only
	// a swap returns a counter to that state, and a swapped group stays
	// listed in g until Reset.
	countedGrps []uint32
	// swapCredit paces swaps by demand: each FM demand access earns one
	// credit; a 2 KB swap costs 64 (it moves 64 accesses worth of FM
	// bytes each way). This keeps swap traffic bounded by demand traffic.
	swapCredit int

	rc        *migcommon.RemapCache
	cache     *segCache
	cacheBase memtypes.Addr
}

// Reset implements memtypes.Resetter: it restores the groups the run
// swapped, clears the counters of the groups the run counted in and the
// installed cache-mode segments, takes seed's permutation of the
// segments, and zeroes the run's state.
func (c *Chameleon) Reset(seed uint64) {
	c.cfg.Seed = seed
	c.g.Reset(seed)
	for _, g := range c.countedGrps {
		c.cand[g], c.ctr[g] = 255, 0
	}
	c.countedGrps = c.countedGrps[:0]
	if sc := c.cache; sc != nil {
		for _, slot := range sc.where {
			sc.slots[slot], sc.dirty[slot] = 0, false
		}
		clear(sc.where)
		clear(sc.touches)
		sc.fifo = 0
	}
	c.rc.Reset()
	c.lastSeg = ^uint32(0)
	c.swapCredit = 0
	c.stats = memtypes.MemStats{}
}

// PoM returns the configuration of Chameleon's base design, Part-of-
// Memory (Sim et al., MICRO'14, [7] in the paper): the same congruence
// groups and competing counters with no cache-mode slice.
func PoM(nmBytes, fmBytes uint64, remapEntries int, seed uint64) Config {
	return Default(nmBytes, fmBytes, 0, remapEntries, seed)
}

// New builds Chameleon over the two devices. Its congruence groups
// spread the permuted sector space (OS page-allocation randomness)
// uniformly over the NM left outside the cache-mode slice.
func New(cfg Config, nm, fm *memsys.Device) *Chameleon {
	groups := migcommon.NewGroups(uint32((cfg.NMBytes-cfg.CacheBytes)/uint64(cfg.SectorBytes)), uint32(cfg.FMBytes/uint64(cfg.SectorBytes)), cfg.Seed)
	c := &Chameleon{
		cfg:     cfg,
		nm:      nm,
		fm:      fm,
		g:       groups,
		cand:    make([]uint8, groups.Count),
		ctr:     make([]int16, groups.Count),
		lastSeg: ^uint32(0),
		rc:      migcommon.NewRemapCache(cfg.RemapCacheEntries, 16),

		cacheBase: memtypes.Addr(cfg.NMBytes - cfg.CacheBytes),
	}
	if slots := int(cfg.CacheBytes / uint64(cfg.CacheLineBytes)); slots > 0 {
		c.cache = newSegCache(slots)
	}
	for i := range c.cand {
		c.cand[i] = 255
	}
	return c
}

// Name implements MemorySystem.
func (c *Chameleon) Name() string {
	if c.cache == nil {
		return "POM"
	}
	return "CHA"
}

// Stats implements MemorySystem.
func (c *Chameleon) Stats() *memtypes.MemStats { return memsys.WithTraffic(&c.stats, c.nm, c.fm) }

// swap exchanges member j with the group's occupant, charging the full
// 2×sector movement plus remap metadata updates.
func (c *Chameleon) swap(now memtypes.Tick, g, j uint32) {
	sb := c.cfg.SectorBytes
	nmAddr := memtypes.Addr(g) * memtypes.Addr(sb)
	fmAddr := memtypes.Addr(c.g.Swap(g, j)) * memtypes.Addr(sb)

	tA := c.fm.AccessBG(memtypes.Migration, now, fmAddr, sb, false)
	tB := c.nm.AccessBG(memtypes.Migration, now, nmAddr, sb, false)
	end := max(tA, tB)
	c.nm.AccessBG(memtypes.Migration, end, nmAddr, sb, true)
	c.fm.AccessBG(memtypes.Migration, end, fmAddr, sb, true)
	// Remap metadata update for the group, in NM.
	c.nm.AccessBG(memtypes.Metadata, end, c.cacheBase-memtypes.Addr(1+g%4096)*64, 64, true)
	c.stats.Migrations++
}

// cacheAccess tries the cache-mode slice for an FM-resident access.
// repeat marks a continuing burst through the same sector (such touches
// do not count toward the install-reuse threshold).
// Returns the completion time and whether the access hit.
func (c *Chameleon) cacheAccess(now memtypes.Tick, addr memtypes.Addr, fmAddr memtypes.Addr, write, repeat bool) (memtypes.Tick, bool) {
	lb := c.cfg.CacheLineBytes
	seg := uint64(addr) / uint64(lb)
	off := memtypes.Addr(uint64(addr) % uint64(lb))
	sc := c.cache

	if slot, ok := sc.where[seg]; ok {
		slotAddr := c.cacheBase + memtypes.Addr(slot*lb)
		if write {
			sc.dirty[slot] = true
		}
		return c.nm.Access(now, slotAddr+off, 64, write), true
	}

	// Miss: serve from FM, track reuse, install on the threshold touch.
	done := c.fm.Access(now, fmAddr, 64, write)
	if len(sc.touches) >= 8192 {
		clear(sc.touches)
	}
	if !repeat {
		sc.touches[seg]++
	}
	// Installs draw from the same demand-earned credit pool as swaps
	// (a 2 KB fill costs 32 demand accesses of FM bytes), so cache fills
	// cannot swamp demand traffic on low-spatial-locality workloads.
	if int(sc.touches[seg]) >= installThreshold && c.swapCredit >= 32 {
		c.swapCredit -= 32
		delete(sc.touches, seg)
		slot := sc.fifo
		sc.fifo = (sc.fifo + 1) % len(sc.slots)
		slotAddr := c.cacheBase + memtypes.Addr(slot*lb)
		if old := sc.slots[slot]; old != 0 {
			delete(sc.where, old-1)
			if sc.dirty[slot] {
				rd := c.nm.AccessBG(memtypes.Writeback, now, slotAddr, lb, false)
				c.fm.AccessBG(memtypes.Writeback, rd, memtypes.Addr(old-1)*memtypes.Addr(lb), lb, true)
				c.stats.Evictions++
			}
		}
		segBase := fmAddr - fmAddr%memtypes.Addr(lb)
		rd := c.fm.AccessBG(memtypes.Fill, now, segBase, lb, false)
		c.nm.AccessBG(memtypes.Fill, rd, slotAddr, lb, true)
		sc.slots[slot] = seg + 1
		sc.dirty[slot] = write
		sc.where[seg] = slot
	}
	return done, false
}

// Access implements MemorySystem.
func (c *Chameleon) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	logical := c.g.Logical(uint32(uint64(addr) / uint64(c.cfg.SectorBytes)))
	offset := memtypes.Addr(uint64(addr) % uint64(c.cfg.SectorBytes))

	// Chameleon's remap metadata is per-group (a few bits per member), so
	// one remap-cache entry covers a whole congruence group.
	g, j, grouped := c.g.Member(logical)
	if !c.rc.Lookup(g) {
		// Remap-table read in NM on the critical path, spread over the
		// metadata region like the real per-group table.
		now = c.nm.AccessAs(memtypes.Metadata, now, c.cacheBase-memtypes.Addr(1+g%4096)*64, 64, false)
	}

	inNM, sec := c.g.Locate(logical)
	repeat := logical == c.lastSeg
	c.lastSeg = logical

	// Competing-counter update and possible swap for grouped sectors.
	// Consecutive accesses to the same sector (a streaming burst through
	// a segment) count as one episode, so the counters measure segment
	// reuse rather than burst length.
	if grouped && !repeat {
		if j == c.g.Occupant(g) {
			if c.ctr[g] > 0 {
				c.ctr[g]--
			}
		} else {
			switch {
			case c.cand[g] == uint8(j):
				c.ctr[g]++
			case c.ctr[g] <= 0:
				if c.cand[g] == 255 && !c.g.Moved(g) {
					c.countedGrps = append(c.countedGrps, g)
				}
				c.cand[g] = uint8(j)
				c.ctr[g] = 1
			default:
				c.ctr[g]--
			}
			if c.cand[g] == uint8(j) && int(c.ctr[g]) >= c.cfg.Threshold && c.swapCredit >= 64 {
				c.swapCredit -= 64
				c.swap(now, g, j)
				c.cand[g] = 255
				c.ctr[g] = 0
				inNM, sec = true, g
			}
		}
	}
	secAddr := memtypes.Addr(sec) * memtypes.Addr(c.cfg.SectorBytes)

	if inNM {
		c.stats.ServedNM++
		return c.nm.Access(now, secAddr+offset, 64, write)
	}

	// FM-resident: try the cache-mode slice first (PoM mode has none).
	if c.swapCredit < 64*64 {
		c.swapCredit++
	}
	if c.cache == nil {
		c.stats.ServedFM++
		return c.fm.Access(now, secAddr+offset, 64, write)
	}
	done, hit := c.cacheAccess(now, addr, secAddr+offset, write, repeat)
	if hit {
		c.stats.ServedNM++
	} else {
		c.stats.ServedFM++
	}
	return done
}

// Finish implements MemorySystem (no deferred interval work).
func (c *Chameleon) Finish(memtypes.Tick) {}

// CheckInvariants verifies the group layout; used by tests.
func (c *Chameleon) CheckInvariants() bool { return c.g.CheckInvariants() }
