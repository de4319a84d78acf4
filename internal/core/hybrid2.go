// Package core implements Hybrid2, the paper's contribution: a hybrid
// memory-system architecture that combines a small sectored DRAM cache
// with a flat-address-space migration scheme in the same 3D-stacked near
// memory.
//
// A small slice of NM (64 MB in the paper) forms the data array of a
// sectored DRAM cache whose tags — the eXtended Tag Array (XTA) — live
// on-chip. XTA entries carry, besides the usual sector tag and per-line
// valid/dirty vectors, a near-memory pointer, a far-memory pointer and a
// saturating access counter (Fig. 4). The NM pointer decouples cache
// set/way from physical NM location, so a sector selected for migration
// on eviction keeps the NM slot its lines were fetched into — migration
// without data movement (§3.1). The XTA doubles as a cache of the in-NM
// remap table, unifying DRAM-cache tag lookup with migration address
// translation (§3.2-3.3).
//
// The memory access path follows Fig. 7, NM allocation follows Fig. 8
// (FIFO over NM with inverted-remap/XTA occupancy checks), DRAM-cache
// eviction follows Fig. 9, and the migration decision follows Fig. 10:
// an access-counter rank test within the set, the net-cost function
// Netcost = 2*Nall − Nvalid − Ndirty + 1, and an FM-bandwidth budget
// accumulated from demand FM accesses and reset every 100 K cycles
// (§3.7).
package core

import (
	"math/bits"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/placement"
)

// Mode selects the full design or one of the ablations of Fig. 14.
type Mode int

// Ablation modes.
const (
	// Normal is the full Hybrid2 design.
	Normal Mode = iota
	// CacheOnly is the sectored DRAM cache alone: no migration, no
	// address-translation overheads, NM flat capacity unused.
	CacheOnly
	// MigrateAll migrates every FM sector evicted from the DRAM cache.
	MigrateAll
	// MigrateNone never migrates.
	MigrateNone
	// NoRemapOverhead runs the full policy but remap-table, inverted
	// remap-table and Free-FM-Stack accesses complete instantly.
	NoRemapOverhead
)

func (m Mode) String() string {
	switch m {
	case Normal:
		return "HYBRID2"
	case CacheOnly:
		return "Cache-Only"
	case MigrateAll:
		return "Migr-All"
	case MigrateNone:
		return "Migr-None"
	case NoRemapOverhead:
		return "No-Remap"
	}
	return "Mode?"
}

// Config parameterizes Hybrid2. The defaults of Default correspond to the
// best design point of the paper's exploration (Fig. 11): 64 MB cache,
// 2 KB sectors, 256 B cache lines, 16-way XTA.
type Config struct {
	SectorBytes int
	LineBytes   int
	Assoc       int
	NMBytes     uint64
	FMBytes     uint64
	CacheBytes  uint64 // NM slice used as the DRAM cache data array
	XTALatency  memtypes.Tick
	CounterBits int
	// MetaFracPermille reserves this fraction (in 1/1000) of NM for the
	// remap structures (§3.3 reports 3.5%).
	MetaFracPermille int
	FMBudgetReset    memtypes.Tick
	FreeStackOnChip  int
	Mode             Mode
	// FreeSectors enables the §3.8 extension: the last FreeSectors
	// logical sectors are hinted free (ISA-Free), so the allocator and
	// eviction paths skip copies of them. 0 turns the extension off.
	FreeSectors uint32
	Seed        uint64
}

// Default returns the paper's Hybrid2 configuration for the given
// (scaled) NM and FM sizes.
func Default(nmBytes, fmBytes, cacheBytes uint64, seed uint64) Config {
	return Config{
		SectorBytes:      config.SectorBytes,
		LineBytes:        config.Hybrid2LineBytes,
		Assoc:            config.XTAAssoc,
		NMBytes:          nmBytes,
		FMBytes:          fmBytes,
		CacheBytes:       cacheBytes,
		XTALatency:       2,
		CounterBits:      9,
		MetaFracPermille: 35,
		FMBudgetReset:    config.PaperFMBudgetResetCycles,
		FreeStackOnChip:  16,
		Mode:             Normal,
		Seed:             seed,
	}
}

// Slot states of NM sectors (see DESIGN.md §5).
const (
	slotFlat      uint8 = iota // flat-space data, not referenced by the XTA
	slotFlatRef                // flat-space data currently linked to an XTA entry (case 2a)
	slotCacheData              // holds cached lines of an FM-resident sector (case 2b)
	slotCacheFree              // assigned to the cache, currently empty
)

const invalidLogical = ^uint32(0)

// xtaEntry is the payload of one eXtended Tag Array entry (Fig. 4); its
// sector tag, valid bit and recency live in the XTA's cachesim.Sets.
type xtaEntry struct {
	migrated bool   // sector lives in NM (FM pointer unused)
	nmPtr    uint32 // NM slot holding the sector's cached lines / data
	fmPtr    uint32 // FM slot of the sector while not migrated
	ctr      uint16 // saturating access counter (§3.7.1)
	validVec uint64 // per-line valid flags
	dirtyVec uint64 // per-line dirty flags
}

// Hybrid2 implements memtypes.MemorySystem.
type Hybrid2 struct {
	cfg Config
	nm  *memsys.Device
	fm  *memsys.Device

	linesPerSector int
	fullMask       uint64
	ctrMax         uint16

	sets    int
	xta     cachesim.Sets // sector tags (logical sector +1) and LRU order
	entries []xtaEntry    // indexed set*Assoc+way, as xta's ways

	poolSectors uint32 // NM slots (cache + flat)
	flatSectors uint32 // slots initially holding flat data
	fmSectors   uint32

	// remap maps each logical sector to its location, as a write
	// overlay on the shared placement permutation: an entry the run
	// never wrote is the sector's initial physical slot. Entry v
	// encodes, with flat = flatSectors and n = flat+fmSectors:
	//   - v < flat:  flat NM slot cacheSlots+v;
	//   - v < n:     FM slot v-flat;
	//   - otherwise: NM cache slot v-n.
	// CacheOnly keeps every sector at its FM home and has no table.
	remap     placement.Table
	invRemap  []uint32 // NM slot -> logical sector (invalidLogical if none)
	slotState []uint8
	freeNM    []uint32 // slotCacheFree slots available for 2b allocations
	freeFM    []uint32 // FM slots with no live data (Free-FM-Stack)
	stackOn   int      // Free-FM-Stack entries currently on-chip

	nmFIFO    uint32
	fmBudget  int64
	nextReset memtypes.Tick
	metaBase  memtypes.Addr

	// §3.8 free-space extension: logical sectors from freeFrom on are
	// hinted free (none when it equals Sectors()).
	freeFrom    uint32
	savedCopies uint64

	stats memtypes.MemStats
	path  PathStats
}

// PathStats counts how often each outcome of the Fig. 7 memory access
// path was taken, for comparison with the paper's §3.4 claim that only
// ~9.3% of accesses need the heavyweight 2b handling.
type PathStats struct {
	Hit1a  uint64 // XTA hit, line present in NM
	Hit1b  uint64 // XTA hit, line fetched from FM
	Miss2a uint64 // XTA miss, sector already in NM (adopted)
	Miss2b uint64 // XTA miss, sector in FM (allocate + fetch)
}

// Frac2b returns the fraction of accesses that took the 2b path.
func (p PathStats) Frac2b() float64 {
	total := p.Hit1a + p.Hit1b + p.Miss2a + p.Miss2b
	if total == 0 {
		return 0
	}
	return float64(p.Miss2b) / float64(total)
}

// PathStats returns the Fig. 7 outcome counters.
func (h *Hybrid2) PathStats() PathStats { return h.path }

// loc is a logical sector's location, decoded from its remap entry: an
// NM pool slot (top bit set) or an FM slot.
type loc uint32

const locNM loc = 1 << 31

func nmLoc(slot uint32) loc { return locNM | loc(slot) }
func fmLoc(slot uint32) loc { return loc(slot) }

// nm reports whether the sector lives in NM.
func (l loc) nm() bool { return l&locNM != 0 }

// idx returns the sector's slot on its device.
func (l loc) idx() uint32 { return uint32(l &^ locNM) }

// slots returns the sector slots of the NM pool (NM less the metadata
// reservation), of its cache slice, and of FM.
func (c Config) slots() (pool, cache, fm uint32) {
	meta := c.NMBytes * uint64(c.MetaFracPermille) / 1000
	sb := uint64(c.SectorBytes)
	return uint32((c.NMBytes - meta) / sb), uint32(c.CacheBytes / sb), uint32(c.FMBytes / sb)
}

// Sectors returns the size of the logical space New builds for c: the
// flat NM slots plus FM.
func (c Config) Sectors() uint32 {
	pool, cache, fm := c.slots()
	return pool - cache + fm
}

// New builds Hybrid2 over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *Hybrid2 {
	if cfg.SectorBytes <= 0 || cfg.LineBytes <= 0 || cfg.SectorBytes%cfg.LineBytes != 0 {
		panic("core: sector must be a positive multiple of the line size")
	}
	lps := cfg.SectorBytes / cfg.LineBytes
	if lps > 64 {
		panic("core: more than 64 lines per sector unsupported")
	}
	pool, cacheSlots, fmSec := cfg.slots()
	if cacheSlots == 0 || cacheSlots >= pool {
		panic("core: cache slice must be a non-zero strict subset of NM")
	}
	sets := int(cacheSlots) / cfg.Assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("core: XTA set count must be a positive power of two")
	}
	flat := pool - cacheSlots
	if uint64(flat)+uint64(fmSec) >= uint64(locNM) {
		panic("core: flat space exceeds 2^31 sectors")
	}
	if cfg.FreeSectors > flat+fmSec {
		panic("core: more sectors hinted free than the flat space holds")
	}

	h := &Hybrid2{
		cfg:            cfg,
		nm:             nm,
		fm:             fm,
		linesPerSector: lps,
		fullMask:       (uint64(1) << lps) - 1,
		ctrMax:         uint16(1)<<cfg.CounterBits - 1,
		sets:           sets,
		xta:            cachesim.NewSets(sets, cfg.Assoc),
		entries:        make([]xtaEntry, int(cacheSlots)),
		poolSectors:    pool,
		flatSectors:    flat,
		fmSectors:      fmSec,
		invRemap:       make([]uint32, pool),
		slotState:      make([]uint8, pool),
		freeNM:         make([]uint32, 0, cacheSlots),
		freeFM:         make([]uint32, 0, cacheSlots),
		nextReset:      cfg.FMBudgetReset,
		metaBase:       memtypes.Addr(pool) * memtypes.Addr(cfg.SectorBytes),
		freeFrom:       flat + fmSec - cfg.FreeSectors,
	}

	// Initial placement. Normal modes: logical sectors spread randomly
	// over flat NM + FM proportionally to capacity (§4), read through
	// remap from the shared permutation. CacheOnly: the flat NM region
	// is unused and everything lives in FM at its home.
	if cfg.Mode != CacheOnly {
		h.remap = placement.PermTable(cfg.Seed, int(h.Sectors()))
	}
	h.placeNM()
	return h
}

// placeNM lays out the NM pool as New builds it: the cache slots, at
// pool indices [0, cacheSlots), free and on the free-slot list; the flat
// slots, at [cacheSlots, pool), in state slotFlat and owned by the
// sectors the permutation placed there (by none in CacheOnly).
func (h *Hybrid2) placeNM() {
	cacheSlots := uint32(len(h.entries))
	owners := h.invRemap[cacheSlots:]
	if h.cfg.Mode == CacheOnly {
		for i := range owners {
			owners[i] = invalidLogical
		}
	} else {
		placement.CopyInverse(owners, h.cfg.Seed, int(h.Sectors()))
	}
	clear(h.slotState[cacheSlots:])
	h.freeNM = h.freeNM[:0]
	for s := uint32(0); s < cacheSlots; s++ {
		h.invRemap[s] = invalidLogical
		h.slotState[s] = slotCacheFree
		h.freeNM = append(h.freeNM, s)
	}
}

// Reset implements memtypes.Resetter: it empties the remap table of the
// entries the run wrote and points it at seed's placement, restores the
// NM pool's owners and states, and clears the XTA and the run's
// counters. Its cost is the remap overlay, sized to the entries
// written, plus the NM pool, never the whole flat space; a seed whose
// placement the memo does not hold adds one shuffle, into a buffer the
// memo recycles.
func (h *Hybrid2) Reset(seed uint64) {
	h.cfg.Seed = seed
	h.remap.Reset(seed)
	h.placeNM()
	h.xta.Reset()
	clear(h.entries)
	h.freeFM = h.freeFM[:0]
	h.stackOn, h.nmFIFO, h.fmBudget = 0, 0, 0
	h.nextReset = h.cfg.FMBudgetReset
	h.savedCopies = 0
	h.stats, h.path = memtypes.MemStats{}, PathStats{}
}

// decode returns the location a remap entry encodes (see remap).
func (h *Hybrid2) decode(v uint32) loc {
	if v < h.flatSectors {
		return nmLoc(uint32(len(h.entries)) + v)
	}
	if v -= h.flatSectors; v < h.fmSectors {
		return fmLoc(v)
	}
	return nmLoc(v - h.fmSectors)
}

// lookup returns a logical sector's location.
func (h *Hybrid2) lookup(logical uint32) loc {
	if h.cfg.Mode == CacheOnly {
		return fmLoc(logical % h.fmSectors)
	}
	return h.decode(h.remap.Get(logical))
}

// setRemap points a logical sector at l.
func (h *Hybrid2) setRemap(logical uint32, l loc) {
	cacheSlots := uint32(len(h.entries))
	switch {
	case !l.nm():
		h.remap.Set(logical, h.flatSectors+l.idx())
	case l.idx() >= cacheSlots:
		h.remap.Set(logical, l.idx()-cacheSlots)
	default:
		h.remap.Set(logical, h.Sectors()+l.idx())
	}
}

// setSlot sets an NM slot's inverted-remap owner and state.
func (h *Hybrid2) setSlot(slot, owner uint32, state uint8) {
	h.invRemap[slot], h.slotState[slot] = owner, state
}

// Name implements MemorySystem.
func (h *Hybrid2) Name() string { return h.cfg.Mode.String() }

// Stats implements MemorySystem.
func (h *Hybrid2) Stats() *memtypes.MemStats { return memsys.WithTraffic(&h.stats, h.nm, h.fm) }

// Sectors returns the number of logical sectors the flat space exposes.
func (h *Hybrid2) Sectors() uint32 { return h.flatSectors + h.fmSectors }

func (h *Hybrid2) nmAddr(slot uint32, off memtypes.Addr) memtypes.Addr {
	return memtypes.Addr(slot)*memtypes.Addr(h.cfg.SectorBytes) + off
}

func (h *Hybrid2) fmAddr(slot uint32, off memtypes.Addr) memtypes.Addr {
	return memtypes.Addr(slot)*memtypes.Addr(h.cfg.SectorBytes) + off
}

// metaRead models a metadata structure read in NM. Critical-path reads
// return the completion time; background ones are fire-and-forget.
func (h *Hybrid2) metaRead(now memtypes.Tick, key uint32) memtypes.Tick {
	if h.cfg.Mode == NoRemapOverhead || h.cfg.Mode == CacheOnly {
		return now
	}
	return h.nm.AccessAs(memtypes.Metadata, now, h.metaBase+memtypes.Addr(key%4096)*64, 64, false)
}

func (h *Hybrid2) metaWrite(now memtypes.Tick, key uint32) {
	if h.cfg.Mode == NoRemapOverhead || h.cfg.Mode == CacheOnly {
		return
	}
	h.nm.AccessBG(memtypes.Metadata, now, h.metaBase+memtypes.Addr(key%4096)*64, 64, true)
}

// metaReadBG is an off-critical-path metadata read (inverted remap table
// probes during allocation, Free-FM-Stack refills).
func (h *Hybrid2) metaReadBG(now memtypes.Tick, key uint32) {
	if h.cfg.Mode == NoRemapOverhead || h.cfg.Mode == CacheOnly {
		return
	}
	h.nm.AccessBG(memtypes.Metadata, now, h.metaBase+memtypes.Addr(key%4096)*64, 64, false)
}

// pushFreeFM pushes an FM slot on the Free-FM-Stack; pushes beyond the
// on-chip window spill to NM (§3.3).
func (h *Hybrid2) pushFreeFM(now memtypes.Tick, slot uint32) {
	h.freeFM = append(h.freeFM, slot)
	if h.stackOn < h.cfg.FreeStackOnChip {
		h.stackOn++
		return
	}
	h.metaWrite(now, slot)
}

// popFreeFM pops a free FM slot, refilling the on-chip window from NM
// when it runs dry.
func (h *Hybrid2) popFreeFM(now memtypes.Tick) uint32 {
	if len(h.freeFM) == 0 {
		panic("core: Free-FM-Stack empty during allocation")
	}
	slot := h.freeFM[len(h.freeFM)-1]
	h.freeFM = h.freeFM[:len(h.freeFM)-1]
	if h.stackOn > 0 {
		h.stackOn--
		if h.stackOn == 0 && len(h.freeFM) > 0 {
			h.metaReadBG(now, slot) // refill the on-chip window
			h.stackOn = min(h.cfg.FreeStackOnChip, len(h.freeFM))
		}
	}
	return slot
}

// maybeResetBudget implements the periodic FM-access-counter reset
// (§3.7.3) that adapts migration bandwidth to workload phases. Every
// elapsed reset zeroes the budget, so one zeroing covers any number of
// them.
func (h *Hybrid2) maybeResetBudget(now memtypes.Tick) {
	if now >= h.nextReset {
		h.fmBudget = 0
		h.nextReset = memtypes.NextPeriod(h.nextReset, now, h.cfg.FMBudgetReset)
	}
}

// allocateNM implements Fig. 8: find a flat NM victim with the FIFO
// counter (skipping slots assigned to the DRAM cache, checked through the
// inverted remap table and the XTA), displace it to a free FM slot, and
// hand its slot to the cache.
func (h *Hybrid2) allocateNM(now memtypes.Tick) uint32 {
	for probes := uint32(0); probes <= h.poolSectors; probes++ {
		slot := h.nmFIFO
		h.nmFIFO++
		if h.nmFIFO >= h.poolSectors {
			h.nmFIFO = 0
		}
		// Inverted-remap lookup to learn the occupant (background).
		h.metaReadBG(now, slot)
		if h.slotState[slot] != slotFlat {
			continue // assigned to the DRAM cache: must not migrate out
		}
		displaced := h.invRemap[slot]
		fmSlot := h.popFreeFM(now)
		if h.sectorUnused(displaced) {
			// §3.8: the displaced sector holds no live data — remap it
			// without copying a byte.
			h.savedCopies++
		} else {
			// Copy the whole victim sector NM -> FM (background).
			rd := h.nm.AccessBG(memtypes.Migration, now, h.nmAddr(slot, 0), h.cfg.SectorBytes, false)
			h.fm.AccessBG(memtypes.Migration, rd, h.fmAddr(fmSlot, 0), h.cfg.SectorBytes, true)
		}
		h.setRemap(displaced, fmLoc(fmSlot))
		h.metaWrite(now, displaced)
		h.setSlot(slot, invalidLogical, slotCacheFree)
		return slot
	}
	panic("core: no flat NM slot available for allocation")
}

// takeSlot returns a cache-free NM slot, displacing a flat sector if the
// cache pool is exhausted.
func (h *Hybrid2) takeSlot(now memtypes.Tick) uint32 {
	if n := len(h.freeNM); n > 0 {
		slot := h.freeNM[n-1]
		h.freeNM = h.freeNM[:n-1]
		return slot
	}
	return h.allocateNM(now)
}

// rankWins implements the access-counter comparison of §3.7.1: the victim
// is considered for migration only if its counter is >= every other
// non-saturated counter in the set (saturated counters are ignored to
// avoid starvation; migrated sectors' counters are never incremented).
// Only a full set evicts, so every other way is valid.
func (h *Hybrid2) rankWins(set int, victim *xtaEntry) bool {
	base := set * h.cfg.Assoc
	for i := base; i < base+h.cfg.Assoc; i++ {
		e := &h.entries[i]
		if e == victim || e.ctr >= h.ctrMax {
			continue
		}
		if e.ctr > victim.ctr {
			return false
		}
	}
	return true
}

// evictEntry implements Fig. 9 and Fig. 10 for e, the LRU victim of a
// set, which held sector logical.
func (h *Hybrid2) evictEntry(now memtypes.Tick, set int, e *xtaEntry, logical uint32) {
	if e.migrated {
		// Case 1: all lines already in NM, remap already points there.
		// Release the reference; the slot keeps the flat data.
		if h.slotState[e.nmPtr] == slotFlatRef {
			h.setSlot(e.nmPtr, h.invRemap[e.nmPtr], slotFlat)
		}
		return
	}

	nAll := h.linesPerSector
	nValid := bits.OnesCount64(e.validVec)
	nDirty := bits.OnesCount64(e.dirtyVec)
	netCost := int64(2*nAll - nValid - nDirty + 1)

	migrate := false
	switch h.cfg.Mode {
	case MigrateAll:
		migrate = true
	case MigrateNone, CacheOnly:
		migrate = false
	default:
		if h.rankWins(set, e) && netCost <= h.fmBudget {
			h.fmBudget -= netCost
			migrate = true
		}
	}

	lb := h.cfg.LineBytes
	if migrate {
		// Fetch the lines not yet present, in the background; the sector
		// keeps the NM slot it already occupies (indirection, §3.1).
		missing := h.fullMask &^ e.validVec
		for m := missing; m != 0; m &= m - 1 {
			line := uint(bits.TrailingZeros64(m))
			off := memtypes.Addr(line) * memtypes.Addr(lb)
			rd := h.fm.AccessBG(memtypes.Migration, now, h.fmAddr(e.fmPtr, off), lb, false)
			h.nm.AccessBG(memtypes.Migration, rd, h.nmAddr(e.nmPtr, off), lb, true)
		}
		h.setRemap(logical, nmLoc(e.nmPtr))
		h.metaWrite(now, logical)
		h.pushFreeFM(now, e.fmPtr)
		h.setSlot(e.nmPtr, logical, slotFlat)
		h.stats.Migrations++
	} else if h.sectorUnused(logical) {
		// §3.8: the sector holds no live data — drop it without
		// write-backs.
		h.savedCopies++
		h.setSlot(e.nmPtr, invalidLogical, slotCacheFree)
		h.freeNM = append(h.freeNM, e.nmPtr)
		h.stats.Evictions++
	} else {
		// Write dirty lines back to the sector's FM home; no remapping
		// structures change (§3.6).
		for m := e.dirtyVec; m != 0; m &= m - 1 {
			line := uint(bits.TrailingZeros64(m))
			off := memtypes.Addr(line) * memtypes.Addr(lb)
			rd := h.nm.AccessBG(memtypes.Writeback, now, h.nmAddr(e.nmPtr, off), lb, false)
			h.fm.AccessBG(memtypes.Writeback, rd, h.fmAddr(e.fmPtr, off), lb, true)
		}
		h.setSlot(e.nmPtr, invalidLogical, slotCacheFree)
		h.freeNM = append(h.freeNM, e.nmPtr)
		h.stats.Evictions++
	}
}

// Access implements the memory access path of Fig. 7.
func (h *Hybrid2) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	h.maybeResetBudget(now)
	h.stats.Requests++

	logical := uint32(uint64(addr) / uint64(h.cfg.SectorBytes))
	if logical >= h.Sectors() {
		logical %= h.Sectors()
	}
	offset := memtypes.Addr(uint64(addr) % uint64(h.cfg.SectorBytes))
	line := uint(uint64(offset) / uint64(h.cfg.LineBytes))
	set := int(logical % uint32(h.sets))
	lb := h.cfg.LineBytes
	lineOff := memtypes.Addr(line) * memtypes.Addr(lb)

	// Every request goes through the on-chip XTA (§3.2). A miss takes
	// the set's LRU way at once; its old entry is evicted below.
	now += h.cfg.XTALatency
	way, old, hit := h.xta.Access(set, uint64(logical)+1)
	e := &h.entries[set*h.cfg.Assoc+way]

	if hit { // 1: XTA hit
		if !e.migrated && e.ctr < h.ctrMax {
			e.ctr++
		}
		if e.validVec&(1<<line) != 0 { // 1a: line hit
			h.path.Hit1a++
			h.stats.ServedNM++
			if write {
				e.dirtyVec |= 1 << line
			}
			return h.nm.Access(now, h.nmAddr(e.nmPtr, offset), 64, write)
		}
		// 1b: line miss — sector is in FM, fetch the line with the
		// demanded 64 B chunk first (critical-word-first).
		h.path.Hit1b++
		h.stats.ServedFM++
		h.fmBudget++
		done, fullDone := h.fm.AccessCriticalFirst(now, h.fmAddr(e.fmPtr, lineOff), lb, 64)
		h.nm.AccessBG(memtypes.Fill, fullDone, h.nmAddr(e.nmPtr, lineOff), lb, true)
		e.validVec |= 1 << line
		if write {
			e.dirtyVec |= 1 << line
		}
		return done
	}

	// 2: XTA miss — read the remap table (critical path), evict the
	// way's old entry, if any, and fill it for the sector.
	now = h.metaRead(now, logical)
	var l loc // lookup, spelled out so that the table read inlines here
	if h.cfg.Mode == CacheOnly {
		l = fmLoc(logical % h.fmSectors)
	} else {
		l = h.decode(h.remap.Get(logical))
	}
	if old != 0 {
		h.evictEntry(now, set, e, uint32(old-1))
	}
	e.ctr = 0

	if l.nm() { // 2a: sector already in NM
		h.path.Miss2a++
		e.migrated = true
		e.nmPtr = l.idx()
		e.fmPtr = 0
		e.validVec = h.fullMask
		e.dirtyVec = h.fullMask // convention of §3.2
		if h.slotState[l.idx()] == slotFlat {
			h.setSlot(l.idx(), h.invRemap[l.idx()], slotFlatRef)
		}
		h.stats.ServedNM++
		return h.nm.Access(now, h.nmAddr(l.idx(), offset), 64, write)
	}

	// 2b: sector in FM — allocate an NM slot, fetch the requested line,
	// update the inverted remap table for allocation correctness (§3.4).
	h.path.Miss2b++
	slot := h.takeSlot(now)
	e.migrated = false
	e.nmPtr = slot
	e.fmPtr = l.idx()
	e.validVec = 1 << line
	e.dirtyVec = 0
	if write {
		e.dirtyVec = 1 << line
	}
	h.setSlot(slot, logical, slotCacheData)
	h.metaWrite(now, slot)

	h.stats.ServedFM++
	h.fmBudget++
	done, fullDone := h.fm.AccessCriticalFirst(now, h.fmAddr(l.idx(), lineOff), lb, 64)
	h.nm.AccessBG(memtypes.Fill, fullDone, h.nmAddr(slot, lineOff), lb, true)
	return done
}

// Finish implements MemorySystem (no deferred interval work).
func (h *Hybrid2) Finish(memtypes.Tick) {}

// CheckInvariants verifies the remap bijection and slot-state consistency
// (used by property tests):
//   - every logical sector maps to exactly one physical location
//   - NM slots in flat states have a matching inverted-remap owner
//   - cache-accounting identity: cacheFree + cacheData + freeFM = cache slots
func (h *Hybrid2) CheckInvariants() bool {
	cacheSlots := uint32(len(h.entries))
	seenNM := make(map[uint32]bool)
	seenFM := make(map[uint32]bool)
	for logical := range h.Sectors() {
		l := h.lookup(logical)
		if l.nm() {
			if l.idx() >= h.poolSectors || seenNM[l.idx()] {
				return false
			}
			seenNM[l.idx()] = true
			st := h.slotState[l.idx()]
			if h.cfg.Mode != CacheOnly {
				if st != slotFlat && st != slotFlatRef {
					return false
				}
				if h.invRemap[l.idx()] != logical {
					return false
				}
			}
		} else {
			if l.idx() >= h.fmSectors {
				return false
			}
			if h.cfg.Mode != CacheOnly {
				if seenFM[l.idx()] {
					return false
				}
				seenFM[l.idx()] = true
			}
		}
	}
	var free, data uint32
	for s := uint32(0); s < h.poolSectors; s++ {
		switch h.slotState[s] {
		case slotCacheFree:
			free++
		case slotCacheData:
			data++
		}
	}
	if h.cfg.Mode == CacheOnly {
		return true
	}
	if free != uint32(len(h.freeNM)) {
		return false
	}
	if free+data+uint32(len(h.freeFM)) != cacheSlots {
		return false
	}
	// No FM slot may be both free and the home of a live sector.
	for _, f := range h.freeFM {
		if seenFM[f] {
			return false
		}
	}
	return true
}
