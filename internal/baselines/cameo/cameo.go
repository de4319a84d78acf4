// Package cameo implements CAMEO (Chou, Jaleel, Qureshi, MICRO'14), the
// origin of the congruence-group approach the paper's §2.2 discusses: NM
// and FM form a flat address space managed at cache-line (64 B)
// granularity, each NM line forming a group with its K congruent FM
// lines. Every access to an FM-resident line swaps it with the group's
// NM-resident line ("cache-like" migration), so the most recent line of
// each group always sits in NM. A line-granularity remap ("LLIT") is
// cached on-chip; misses read it from NM.
//
// CAMEO's strength is fine granularity (no over-fetch); its weakness —
// which the Hybrid2 paper points out for group-based schemes — is that
// low NM:FM ratios give each group many competitors for one NM line.
package cameo

import (
	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes CAMEO.
type Config struct {
	LineBytes         int
	NMBytes, FMBytes  uint64
	RemapCacheEntries int
	Seed              uint64
}

// Default returns the standard CAMEO configuration.
func Default(nmBytes, fmBytes uint64, remapEntries int, seed uint64) Config {
	return Config{
		LineBytes:         memtypes.CPULineBytes,
		NMBytes:           nmBytes,
		FMBytes:           fmBytes,
		RemapCacheEntries: remapEntries,
		Seed:              seed,
	}
}

// CAMEO implements memtypes.MemorySystem.
type CAMEO struct {
	cfg   Config
	nm    *memsys.Device
	fm    *memsys.Device
	stats memtypes.MemStats

	g  migcommon.Groups // one group per NM line
	rc *migcommon.RemapCache
}

// New builds CAMEO over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *CAMEO {
	return &CAMEO{
		cfg: cfg,
		nm:  nm,
		fm:  fm,
		g:   migcommon.NewGroups(uint32(cfg.NMBytes/uint64(cfg.LineBytes)), uint32(cfg.FMBytes/uint64(cfg.LineBytes)), cfg.Seed),
		// One remap-cache entry covers a group, like CAMEO's
		// row-granularity line-location table (LLIT) entries.
		rc: migcommon.NewRemapCache(cfg.RemapCacheEntries, 16),
	}
}

// Reset implements memtypes.Resetter: it restores the groups the run
// swapped, takes seed's permutation of the lines and empties the remap
// cache.
func (c *CAMEO) Reset(seed uint64) {
	c.cfg.Seed = seed
	c.g.Reset(seed)
	c.rc.Reset()
	c.stats = memtypes.MemStats{}
}

// Name implements MemorySystem.
func (c *CAMEO) Name() string { return "CAMEO" }

// Stats implements MemorySystem.
func (c *CAMEO) Stats() *memtypes.MemStats { return memsys.WithTraffic(&c.stats, c.nm, c.fm) }

// Access implements MemorySystem: an FM-resident line is swapped with the
// group's NM occupant on every access (CAMEO's policy).
func (c *CAMEO) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	lb := c.cfg.LineBytes
	logical := c.g.Logical(uint32(uint64(addr) / uint64(lb)))
	inNM, unit := c.g.Locate(logical)
	lineAddr := memtypes.Addr(unit) * memtypes.Addr(lb)
	g, j, grouped := c.g.Member(logical)
	if !grouped {
		// Pinned FM line: no group, no migration.
		c.stats.ServedFM++
		return c.fm.Access(now, lineAddr, lb, write)
	}

	if !c.rc.Lookup(g) {
		// Line-location table read from NM on the critical path.
		now = c.nm.AccessAs(memtypes.Metadata, now, memtypes.Addr(c.cfg.NMBytes)-memtypes.Addr(1+g%4096)*64, 64, false)
	}
	if inNM {
		c.stats.ServedNM++
		return c.nm.Access(now, lineAddr, lb, write)
	}

	// FM resident: serve it and swap it with the NM occupant.
	c.stats.ServedFM++
	done := c.fm.Access(now, lineAddr, lb, write)

	// Swap in the background: the occupant goes to the accessed line's
	// FM slot, the line's data fills the NM slot.
	nmAddr := memtypes.Addr(g) * memtypes.Addr(lb)
	rdNM := c.nm.AccessBG(memtypes.Migration, now, nmAddr, lb, false)
	c.fm.AccessBG(memtypes.Migration, rdNM, lineAddr, lb, true)
	c.nm.AccessBG(memtypes.Migration, done, nmAddr, lb, true)
	c.stats.Migrations++
	c.g.Swap(g, j)
	return done
}

// Finish implements MemorySystem (no deferred work).
func (c *CAMEO) Finish(memtypes.Tick) {}

// CheckInvariants verifies the group layout; used by tests.
func (c *CAMEO) CheckInvariants() bool { return c.g.CheckInvariants() }
