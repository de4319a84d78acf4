// Package dramcache implements the DRAM-cache family of the paper's
// comparison: the near memory used entirely as a cache of far memory.
// One parameterized implementation covers three designs:
//
//   - IDEAL: no tag-lookup overhead at any line size (Figures 1, 2)
//   - TAGLESS (Lee et al., ISCA'15): 4 KB pages tracked through the
//     TLB/page tables, hence no tag overhead, but full-page fills
//   - DFC (Decoupled Fused Cache, TACO'19): tags live in DRAM but are
//     fused with the on-chip LLC tags; modelled as a small on-chip lookup
//     latency on every access plus one NM metadata access per miss
//
// Lines are fetched whole from FM on a miss (the over-fetch behaviour
// Figure 1 quantifies); per-64B-chunk use masks feed the wasted-data
// accounting.
package dramcache

import (
	"math/bits"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config selects a member of the DRAM-cache family.
type Config struct {
	Name      string
	NMBytes   uint64 // cache capacity = all of near memory
	LineBytes int    // DRAM-cache line (64 B .. 4 KB)
	Assoc     int
	// TagLatency is an on-chip lookup latency added to every access
	// (DFC's fused tag structures). Zero for IDEAL/TAGLESS.
	TagLatency memtypes.Tick
	// MetaPerMiss charges one 64 B NM metadata read on the critical path
	// of every miss plus one background metadata write (DFC's in-DRAM
	// tag array). False for IDEAL/TAGLESS.
	MetaPerMiss bool
	// TADBytes, when non-zero, models Alloy-style tag-and-data fusion:
	// every probe (hit or miss) is one NM burst of this size — the tag
	// rides along with the data, so there is no separate lookup, but a
	// miss still pays the probe before going to FM.
	TADBytes int
}

// Ideal returns the ideal-cache configuration at a line size (Fig. 1/2).
func Ideal(nmBytes uint64, lineBytes int) Config {
	return Config{Name: "IDEAL", NMBytes: nmBytes, LineBytes: lineBytes, Assoc: 16}
}

// Tagless returns the Tagless DRAM cache configuration: 4 KB pages, no
// tag overhead (the paper optimistically models no OS overhead either).
func Tagless(nmBytes uint64) Config {
	return Config{Name: "TAGLESS", NMBytes: nmBytes, LineBytes: 4096, Assoc: 32}
}

// DFC returns the Decoupled Fused Cache configuration. The paper found
// its best performance at 1 KB lines; Fig. 2 sweeps other sizes.
func DFC(nmBytes uint64, lineBytes int) Config {
	return Config{Name: "DFC", NMBytes: nmBytes, LineBytes: lineBytes, Assoc: 16,
		TagLatency: 4, MetaPerMiss: true}
}

// Alloy returns the Alloy cache configuration (Qureshi & Loh, MICRO'12,
// §2.1 of the paper): direct-mapped, 64 B lines, tag collocated with the
// data so each probe is a single burst (TAD) — the practical design on
// the small-line end of the DRAM-cache spectrum.
func Alloy(nmBytes uint64) Config {
	return Config{Name: "ALLOY", NMBytes: nmBytes, LineBytes: 64, Assoc: 1, TADBytes: 72}
}

// The tag store is paged: a page holds the tag, use and LRU words of a
// block of consecutive sets, and is allocated the first time one of its
// sets is accessed. A 64 B-line cache over scaled NM has millions of
// ways, and a short run touches a few thousand of them, so building a
// cache costs its page index and a run pays for the pages it touches.
// The valid and dirty flags live in spare high bits of the tag word:
// physical addresses fit well below 2^58 line-granularity tags.
const (
	tagValid = 1 << 63
	tagDirty = 1 << 62
	tagMask  = tagDirty - 1
)

// pageWays is the number of ways a page holds: the ways of the largest
// power-of-two count of whole sets that fits, 4 sets of a 16-way cache.
// A run's misses land on random sets, so the bytes it allocates grow
// with the page size while the page index shrinks. Measured on the DSE
// screening search, pages of 32, 64, 128, 256 and 512 ways allocated
// 57.8, 58.2, 59.8, 61.8 and 64.5 MB per search; the long sweeps and
// trace replays moved by under 1%.
const pageWays = 64

// page is the entry state of one block of sets, indexed by
// (set within the page)*assoc + way.
type page struct {
	tags [pageWays]uint64 // flags in the high bits
	used [pageWays]uint64 // per-64B chunk touch bits (lines up to 4 KB)
	lrus [pageWays]uint64 // LRU stamps; unread when assoc == 1
}

// Cache is a DRAM cache over the NM device backed by the FM device.
type Cache struct {
	cfg    Config
	nm, fm *memsys.Device

	// pages indexes the tag store by set>>pageShift; a nil page's sets
	// are empty. active lists the pages allocated since the last Reset,
	// so Finish and Reset visit only those, and spare holds the zeroed
	// pages Reset detached, which back the next run's first touches.
	pages  []*page
	active []int32
	spare  []*page

	sets        int
	assoc       int
	shift       uint
	setBits     uint
	setMask     uint64
	pageShift   uint // log2 of the sets per page
	pageSetMask int  // sets per page - 1, masking a set's place in its page
	lineMask    uint64
	clock       uint64
	stats       memtypes.MemStats
	metaBase    memtypes.Addr // NM address region used for DFC metadata
}

// New builds the cache. NMBytes must be a multiple of Assoc*LineBytes
// with a power-of-two set count, and Assoc at most 64.
func New(cfg Config, nm, fm *memsys.Device) *Cache {
	if cfg.Assoc < 1 || cfg.Assoc > pageWays {
		panic("dramcache: associativity must be in [1, 64]")
	}
	sets := int(cfg.NMBytes) / (cfg.Assoc * cfg.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("dramcache: set count must be a positive power of two")
	}
	shift := uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	if 1<<shift != cfg.LineBytes || cfg.LineBytes < 64 {
		panic("dramcache: line size must be a power of two >= 64")
	}
	pageShift := uint(bits.Len(uint(pageWays/cfg.Assoc))) - 1
	return &Cache{
		cfg:         cfg,
		nm:          nm,
		fm:          fm,
		pages:       make([]*page, (sets+1<<pageShift-1)>>pageShift),
		active:      []int32{},
		sets:        sets,
		assoc:       cfg.Assoc,
		shift:       shift,
		setBits:     uint(bits.TrailingZeros(uint(sets))),
		setMask:     uint64(sets - 1),
		pageShift:   pageShift,
		pageSetMask: 1<<pageShift - 1,
		lineMask:    uint64(cfg.LineBytes - 1),
		metaBase:    memtypes.Addr(cfg.NMBytes),
	}
}

// page returns the page of set, allocating it on the first access to
// one of its sets since the last Reset. The set's way 0 is at index
// (set & c.pageSetMask) * c.assoc of the page.
func (c *Cache) page(set int) *page {
	if p := c.pages[set>>c.pageShift]; p != nil {
		return p
	}
	return c.allocPage(set >> c.pageShift)
}

// allocPage maps page pi to a spare page, or a new one if none is left.
func (c *Cache) allocPage(pi int) *page {
	var p *page
	if n := len(c.spare); n > 0 {
		p, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		p = new(page)
	}
	c.pages[pi] = p
	c.active = append(c.active, int32(pi))
	return p
}

// Reset implements memtypes.Resetter: only the pages allocated since the
// last Reset ever held a line, so zeroing and unmapping them empties the
// cache. They are kept to back the next run's pages.
func (c *Cache) Reset(uint64) {
	for _, pi := range c.active {
		p := c.pages[pi]
		*p = page{}
		c.spare = append(c.spare, p)
		c.pages[pi] = nil
	}
	c.active = c.active[:0]
	c.clock = 0
	c.stats = memtypes.MemStats{}
}

// Name implements MemorySystem.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats implements MemorySystem.
func (c *Cache) Stats() *memtypes.MemStats { return memsys.WithTraffic(&c.stats, c.nm, c.fm) }

// nmAddr maps an entry slot to its NM data location.
func (c *Cache) nmAddr(set, way int) memtypes.Addr {
	return memtypes.Addr((set*c.assoc + way) * c.cfg.LineBytes)
}

// Access implements MemorySystem.
func (c *Cache) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	c.clock++
	now += c.cfg.TagLatency

	blk := uint64(addr) >> c.shift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	chunk := uint(uint64(addr) & c.lineMask >> 6)
	p, base := c.page(set), set&c.pageSetMask*c.assoc

	for i := 0; i < c.assoc; i++ {
		w := p.tags[base+i]
		if w&tagValid != 0 && w&tagMask == tag {
			if c.assoc > 1 {
				p.lrus[base+i] = c.clock
			}
			p.used[base+i] |= 1 << chunk
			if write {
				p.tags[base+i] = w | tagDirty
			}
			c.stats.ServedNM++
			sz := 64
			if c.cfg.TADBytes > 0 {
				sz = c.cfg.TADBytes // tag rides with the data
			}
			return c.nm.Access(now, c.nmAddr(set, i)+memtypes.Addr(chunk*64), sz, write)
		}
	}

	// Miss: pick the victim the way the old array-of-structs scan did —
	// the first invalid way when one exists, else the lowest-indexed way
	// with the minimum LRU stamp — then evict it and fetch the whole line
	// from FM.
	c.stats.ServedFM++
	victim := 0
	if c.assoc > 1 {
		victim = -1
		minI := 0
		for i := 0; i < c.assoc; i++ {
			if p.tags[base+i]&tagValid == 0 {
				victim = i
				break
			}
			if p.lrus[base+i] < p.lrus[base+minI] {
				minI = i
			}
		}
		if victim < 0 {
			victim = minI
		}
	}
	slot := c.nmAddr(set, victim)
	idx := base + victim
	if p.tags[idx]&tagValid != 0 {
		c.evict(now, p, idx, set, slot)
	}

	if c.cfg.TADBytes > 0 {
		// Alloy probe: the miss is only discovered after reading the TAD.
		now = c.nm.AccessAs(memtypes.Metadata, now, slot, c.cfg.TADBytes, false)
	}
	if c.cfg.MetaPerMiss {
		// In-DRAM tag read on the critical path + background tag update.
		now = c.nm.AccessAs(memtypes.Metadata, now, c.metaBase+memtypes.Addr(set*64), 64, false)
		c.nm.AccessBG(memtypes.Metadata, now, c.metaBase+memtypes.Addr(set*64), 64, true)
	}

	// Critical-word-first: the demanded 64 B chunk arrives first; the
	// rest of the line streams behind it, occupying FM bandwidth but not
	// the miss critical path.
	lineBase := memtypes.Addr(blk << c.shift)
	fetchDone, fullDone := c.fm.AccessCriticalFirst(now, lineBase, c.cfg.LineBytes, 64)
	c.stats.FetchedBytes += uint64(c.cfg.LineBytes)
	// Fill into NM in the background.
	c.nm.AccessBG(memtypes.Fill, fullDone, slot, c.cfg.LineBytes, true)

	newTag := tag | tagValid
	if write {
		newTag |= tagDirty
	}
	p.tags[idx] = newTag
	p.used[idx] = 1 << chunk
	if c.assoc > 1 {
		p.lrus[idx] = c.clock
	}
	return fetchDone
}

// evict writes the dirty victim at index idx of p, a way of set whose
// data sits at slot in NM, back to FM and accounts its used chunks.
func (c *Cache) evict(now memtypes.Tick, p *page, idx, set int, slot memtypes.Addr) {
	w := p.tags[idx]
	c.stats.UsedBytes += uint64(bits.OnesCount64(p.used[idx])) * 64
	c.stats.Evictions++
	if w&tagDirty != 0 {
		rd := c.nm.AccessBG(memtypes.Writeback, now, slot, c.cfg.LineBytes, false)
		victimAddr := memtypes.Addr(((w&tagMask)<<c.setBits | uint64(set)) << c.shift)
		c.fm.AccessBG(memtypes.Writeback, rd, victimAddr, c.cfg.LineBytes, true)
	}
	p.tags[idx] = w &^ tagValid
}

// Finish credits the use masks of still-resident lines so the wasted-data
// fraction is not overstated at simulation end. Only the pages allocated
// since the last Reset can hold a line; the accumulation is commutative,
// so the page order matches a full scan's result exactly.
func (c *Cache) Finish(memtypes.Tick) {
	for _, pi := range c.active {
		p := c.pages[pi]
		for i, w := range p.tags {
			if w&tagValid != 0 {
				c.stats.UsedBytes += uint64(bits.OnesCount64(p.used[i])) * 64
				p.used[i] = 0
			}
		}
	}
}
