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

	groups uint32 // one NM line per group
	k      uint32 // FM lines per group
	pinned uint32
	// slots[g*(k+1)+j]: location of member j of group g:
	// 0 = the group's NM line, v>0 = FM line g*k+(v-1).
	slots []uint8

	rc *migcommon.RemapCache

	permPow2 uint32
	permMul  uint32
	permAdd  uint32
}

// New builds CAMEO over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *CAMEO {
	groups := uint32(cfg.NMBytes / uint64(cfg.LineBytes))
	fmLines := uint32(cfg.FMBytes / uint64(cfg.LineBytes))
	if groups == 0 {
		panic("cameo: no NM capacity")
	}
	k := fmLines / groups
	if k == 0 {
		k = 1
	}
	c := &CAMEO{
		cfg:    cfg,
		nm:     nm,
		fm:     fm,
		groups: groups,
		k:      k,
		pinned: fmLines - groups*k,
		slots:  make([]uint8, uint64(groups)*uint64(k+1)),
		// One remap-cache entry covers a group, like CAMEO's
		// row-granularity line-location table (LLIT) entries.
		rc: migcommon.NewRemapCache(cfg.RemapCacheEntries, 16),
	}
	for g := uint32(0); g < groups; g++ {
		base := uint64(g) * uint64(k+1)
		for j := uint32(1); j <= k; j++ {
			c.slots[base+uint64(j)] = uint8(j)
		}
	}
	p := uint32(1)
	for p < c.Lines() {
		p <<= 1
	}
	c.permPow2 = p
	c.permMul = uint32(cfg.Seed)*8 + 5
	c.permAdd = uint32(cfg.Seed>>16) | 1
	return c
}

// Lines returns the logical flat-space size in 64 B lines.
func (c *CAMEO) Lines() uint32 { return c.groups*(c.k+1) + c.pinned }

// Name implements MemorySystem.
func (c *CAMEO) Name() string { return "CAMEO" }

// Stats implements MemorySystem.
func (c *CAMEO) Stats() *memtypes.MemStats { return memsys.WithTraffic(&c.stats, c.nm, c.fm) }

// scramble models OS page-allocation randomness (cycle-walking LCG).
func (c *CAMEO) scramble(l uint32) uint32 {
	n := c.Lines()
	x := l
	for {
		x = (x*c.permMul + c.permAdd) & (c.permPow2 - 1)
		if x < n {
			return x
		}
	}
}

// Access implements MemorySystem: an FM-resident line is swapped with the
// group's NM occupant on every access (CAMEO's policy).
func (c *CAMEO) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	logical := uint32(uint64(addr) / uint64(c.cfg.LineBytes))
	if logical >= c.Lines() {
		logical %= c.Lines()
	}
	logical = c.scramble(logical)
	lb := c.cfg.LineBytes

	grouped := c.groups * (c.k + 1)
	if logical >= grouped {
		// Pinned FM line: no group, no migration.
		c.stats.ServedFM++
		fmAddr := memtypes.Addr(c.groups*c.k+(logical-grouped)) * memtypes.Addr(lb)
		return c.fm.Access(now, fmAddr, lb, write)
	}

	g := logical % c.groups
	j := logical / c.groups
	if !c.rc.Lookup(g) {
		// Line-location table read from NM on the critical path.
		now = c.nm.AccessAs(memtypes.Metadata, now, memtypes.Addr(c.cfg.NMBytes)-memtypes.Addr(1+g%4096)*64, 64, false)
	}

	base := uint64(g) * uint64(c.k+1)
	v := c.slots[base+uint64(j)]
	nmAddr := memtypes.Addr(g) * memtypes.Addr(lb)
	if v == 0 {
		c.stats.ServedNM++
		return c.nm.Access(now, nmAddr, lb, write)
	}

	// FM resident: serve it and swap it with the NM occupant.
	c.stats.ServedFM++
	fmAddr := memtypes.Addr(g*c.k+uint32(v-1)) * memtypes.Addr(lb)
	done := c.fm.Access(now, fmAddr, lb, write)

	// Swap in the background: the occupant goes to the accessed line's
	// FM slot, the line's data fills the NM slot.
	rdNM := c.nm.AccessBG(memtypes.Migration, now, nmAddr, lb, false)
	c.fm.AccessBG(memtypes.Migration, rdNM, fmAddr, lb, true)
	c.nm.AccessBG(memtypes.Migration, done, nmAddr, lb, true)
	c.stats.Migrations++

	// Occupant member (slot value 0) takes v; accessed member takes NM.
	for jj := uint64(0); jj <= uint64(c.k); jj++ {
		if c.slots[base+jj] == 0 {
			c.slots[base+jj] = v
			break
		}
	}
	c.slots[base+uint64(j)] = 0
	return done
}

// Finish implements MemorySystem (no deferred work).
func (c *CAMEO) Finish(memtypes.Tick) {}

// CheckInvariants verifies each group holds exactly one NM resident and
// distinct FM slots; used by tests.
func (c *CAMEO) CheckInvariants() bool {
	for g := uint32(0); g < c.groups; g++ {
		base := uint64(g) * uint64(c.k+1)
		seen := make(map[uint8]bool, c.k+1)
		nmCount := 0
		for j := uint64(0); j <= uint64(c.k); j++ {
			v := c.slots[base+j]
			if seen[v] {
				return false
			}
			seen[v] = true
			if v == 0 {
				nmCount++
			}
		}
		if nmCount != 1 {
			return false
		}
	}
	return true
}
