// Package mempod implements the MemPod migration scheme (Prodromou et
// al., HPCA'17): a flat NM+FM address space with all-to-all 2 KB-segment
// remapping where, at fixed intervals, the segments identified as hot by
// the Majority Element Algorithm (Karp et al.) are migrated into NM,
// swapping with FIFO-selected NM victims. The paper's design-space
// exploration found 64 MEA counters with 50 µs intervals best for the
// evaluated system; those are the defaults here.
package mempod

import (
	"sort"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes MemPod.
type Config struct {
	SectorBytes      int
	NMBytes, FMBytes uint64
	MEACounters      int           // tracked segments (64 in the paper)
	IntervalCycles   memtypes.Tick // 50 µs = 160 K cycles
	// MinCount is the MEA count a segment needs at interval end to be
	// migrated; it keeps lukewarm segments from thrashing NM.
	MinCount uint32
	// MaxMigrations caps swaps per interval. At shortened (scaled)
	// intervals this keeps the instantaneous migration bandwidth at the
	// paper's level of 64 segments per 50 µs.
	MaxMigrations     int
	RemapCacheEntries int // on-chip remap cache (XTA-equivalent)
	Seed              uint64
}

// Default returns the paper's MemPod configuration for the given sizes.
func Default(nmBytes, fmBytes uint64, remapEntries int, seed uint64) Config {
	return Config{
		SectorBytes:       config.SectorBytes,
		NMBytes:           nmBytes,
		FMBytes:           fmBytes,
		MEACounters:       64,
		IntervalCycles:    config.PaperIntervalCycles,
		MinCount:          8,
		MaxMigrations:     64,
		RemapCacheEntries: remapEntries,
		Seed:              seed,
	}
}

type meaEntry struct {
	seg   uint32
	count uint32
}

// MemPod implements memtypes.MemorySystem.
type MemPod struct {
	cfg   Config
	space *migcommon.Space
	rc    *migcommon.RemapCache
	stats memtypes.MemStats

	mea      []meaEntry
	meaIdx   map[uint32]int
	debt     uint32
	fmDemand int // FM demand accesses this interval (migration pacing)
	nmFIFO   uint32
	nextInt  memtypes.Tick
}

// New builds MemPod over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *MemPod {
	m := &MemPod{
		cfg:     cfg,
		meaIdx:  make(map[uint32]int, cfg.MEACounters),
		nextInt: cfg.IntervalCycles,
	}
	m.space = migcommon.NewSpace(cfg.SectorBytes, cfg.NMBytes, cfg.FMBytes, nm, fm, &m.stats, cfg.Seed)
	m.rc = migcommon.NewRemapCache(cfg.RemapCacheEntries, 16)
	return m
}

// Reset implements memtypes.Resetter.
func (m *MemPod) Reset() {
	m.space.Reset()
	m.rc.Reset()
	m.stats = memtypes.MemStats{}
	m.mea = m.mea[:0]
	clear(m.meaIdx)
	m.debt, m.fmDemand, m.nmFIFO = 0, 0, 0
	m.nextInt = m.cfg.IntervalCycles
}

// Name implements MemorySystem.
func (m *MemPod) Name() string { return "MPOD" }

// Stats implements MemorySystem.
func (m *MemPod) Stats() *memtypes.MemStats { return m.space.Stats() }

// observe feeds the Majority Element Algorithm: tracked segments are
// incremented; untracked ones claim an expired slot or, if none, charge
// the global decrement (the classic decrement-all, done lazily via debt).
func (m *MemPod) observe(seg uint32) {
	if i, ok := m.meaIdx[seg]; ok {
		m.mea[i].count++
		return
	}
	if len(m.mea) < m.cfg.MEACounters {
		m.meaIdx[seg] = len(m.mea)
		m.mea = append(m.mea, meaEntry{seg: seg, count: m.debt + 1})
		return
	}
	for i := range m.mea {
		if m.mea[i].count <= m.debt {
			delete(m.meaIdx, m.mea[i].seg)
			m.mea[i] = meaEntry{seg: seg, count: m.debt + 1}
			m.meaIdx[seg] = i
			return
		}
	}
	m.debt++
}

// interval performs the end-of-interval migrations: hot tracked segments
// currently in FM swap with FIFO-selected NM victims.
func (m *MemPod) interval(now memtypes.Tick) {
	live := make([]meaEntry, 0, len(m.mea))
	for _, e := range m.mea {
		if e.count > m.debt {
			live = append(live, meaEntry{seg: e.seg, count: e.count - m.debt})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].count > live[j].count })
	// Pace migrations by the demand the interval actually sent to FM so
	// swap traffic cannot swamp demand traffic: one 2 KB swap moves as
	// many FM bytes as 64 demand accesses. The MEA survivors are already
	// the relatively hottest segments, so the budgeted top of the sorted
	// list is migrated without an absolute count threshold.
	budget := m.fmDemand / 64
	if budget > m.cfg.MaxMigrations {
		budget = m.cfg.MaxMigrations
	}
	migrated := 0
	for _, e := range live {
		if migrated >= budget {
			break
		}
		if m.space.Lookup(e.seg).NM {
			continue
		}
		m.space.Swap(now, e.seg, m.nmFIFO, 0)
		m.nmFIFO = (m.nmFIFO + 1) % m.space.NMSectors
		migrated++
	}
	m.mea = m.mea[:0]
	for k := range m.meaIdx {
		delete(m.meaIdx, k)
	}
	m.debt = 0
	m.fmDemand = 0
}

// Access implements MemorySystem.
func (m *MemPod) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	if now >= m.nextInt {
		// Only the first elapsed interval has work: it empties the
		// tracking state and the FM demand count, so the intervals after
		// it, with no access in between, would change nothing.
		m.interval(m.nextInt)
		m.nextInt = memtypes.NextPeriod(m.nextInt, now, m.cfg.IntervalCycles)
	}
	m.stats.Requests++
	logical := uint32(uint64(addr) / uint64(m.cfg.SectorBytes))
	if logical >= m.space.Sectors() {
		logical %= m.space.Sectors()
	}
	offset := memtypes.Addr(uint64(addr) % uint64(m.cfg.SectorBytes))
	if !m.rc.Lookup(logical) {
		now = m.space.ReadRemapEntry(now, logical)
	}
	m.observe(logical)
	if !m.space.Lookup(logical).NM {
		m.fmDemand++
	}
	return m.space.AccessData(now, logical, offset, write)
}

// Finish implements MemorySystem: runs the last pending interval.
func (m *MemPod) Finish(now memtypes.Tick) {
	m.interval(now)
}

// Space exposes the flat space for invariant tests.
func (m *MemPod) Space() *migcommon.Space { return m.space }
