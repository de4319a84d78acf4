// Package lgm implements LLC-guided data migration (Vasilakis et al.,
// IPDPS'19): a flat NM+FM space where 2 KB segments are selected for
// migration based on the spatial locality they exhibit at the LLC —
// segments whose miss stream touched many distinct lines within an
// interval are migrated, and the lines already brought into the LLC are
// not re-fetched from FM (the scheme's bandwidth economization). The
// paper's exploration found a migration high watermark of 256 with 50 µs
// intervals best; those are the defaults.
package lgm

import (
	"fmt"
	"math/bits"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes LGM.
type Config struct {
	SectorBytes       int
	NMBytes, FMBytes  uint64
	MinLines          int           // distinct-line threshold for candidacy
	Watermark         int           // max migrations per interval (256)
	IntervalCycles    memtypes.Tick // 50 µs
	RemapCacheEntries int
	Seed              uint64
}

// Default returns the paper's LGM configuration for the given sizes.
func Default(nmBytes, fmBytes uint64, remapEntries int, seed uint64) Config {
	return Config{
		SectorBytes:       config.SectorBytes,
		NMBytes:           nmBytes,
		FMBytes:           fmBytes,
		MinLines:          12,
		Watermark:         256,
		IntervalCycles:    config.PaperIntervalCycles,
		RemapCacheEntries: remapEntries,
		Seed:              seed,
	}
}

// LGM implements memtypes.MemorySystem.
type LGM struct {
	cfg   Config
	space *migcommon.Space
	rc    *migcommon.RemapCache
	stats memtypes.MemStats

	touched  map[uint32]segInfo // FM segment -> observed locality
	candQ    []uint32           // segments qualified for migration
	fmDemand int                // FM demand accesses this interval
	lastSeg  uint32
	nmFIFO   uint32
	nextInt  memtypes.Tick
}

// segInfo tracks one FM segment: the distinct lines its misses touched
// (spatial locality) and the number of access episodes (reuse;
// consecutive accesses count once).
type segInfo struct {
	mask     uint32 // one bit per 64 B line
	episodes uint16
	queued   bool
}

// maxLines is the most lines a segment can have: one bit each in
// segInfo.mask.
const maxLines = 32

// New builds LGM over the two devices. It panics on a sector of more
// than maxLines lines, whose upper lines the line mask would drop.
func New(cfg Config, nm, fm *memsys.Device) *LGM {
	if lines := (cfg.SectorBytes + memtypes.CPULineBytes - 1) / memtypes.CPULineBytes; lines > maxLines {
		panic(fmt.Sprintf("lgm: a %d-byte sector has %d lines, more than the %d the line mask tracks", cfg.SectorBytes, lines, maxLines))
	}
	l := &LGM{
		cfg:     cfg,
		touched: make(map[uint32]segInfo, 1024),
		lastSeg: ^uint32(0),
		nextInt: cfg.IntervalCycles,
	}
	l.space = migcommon.NewSpace(cfg.SectorBytes, cfg.NMBytes, cfg.FMBytes, nm, fm, &l.stats, cfg.Seed)
	l.rc = migcommon.NewRemapCache(cfg.RemapCacheEntries, 16)
	return l
}

// Reset implements memtypes.Resetter.
func (l *LGM) Reset(seed uint64) {
	l.cfg.Seed = seed
	l.space.Reset(seed)
	l.rc.Reset()
	l.stats = memtypes.MemStats{}
	clear(l.touched)
	l.candQ = l.candQ[:0]
	l.fmDemand, l.nmFIFO = 0, 0
	l.lastSeg = ^uint32(0)
	l.nextInt = l.cfg.IntervalCycles
}

// Name implements MemorySystem.
func (l *LGM) Name() string { return "LGM" }

// Stats implements MemorySystem.
func (l *LGM) Stats() *memtypes.MemStats { return l.space.Stats() }

// interval migrates queued candidate segments, paced by the demand the
// interval actually sent to FM so migration traffic cannot swamp demand
// traffic; unserved candidates carry over to the next interval.
func (l *LGM) interval(now memtypes.Tick) {
	budget := l.fmDemand / 64
	if budget > l.cfg.Watermark {
		budget = l.cfg.Watermark
	}
	// Serve the newest candidates first: they reflect the current phase.
	migrated := 0
	keepFrom := len(l.candQ)
	for i := len(l.candQ) - 1; i >= 0; i-- {
		seg := l.candQ[i]
		if migrated >= budget {
			break
		}
		keepFrom = i
		if l.space.Lookup(seg).NM {
			continue
		}
		lines := bits.OnesCount32(l.touched[seg].mask)
		l.space.Swap(now, seg, l.nmFIFO, lines*memtypes.CPULineBytes)
		l.nmFIFO = (l.nmFIFO + 1) % l.space.NMSectors
		migrated++
	}
	l.candQ = l.candQ[:keepFrom]
	l.fmDemand = 0
	// Bound the tracking structures (they model finite SRAM tables).
	if len(l.touched) > 32768 {
		clear(l.touched)
		l.candQ = l.candQ[:0]
	}
}

// Access implements MemorySystem.
func (l *LGM) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	if now >= l.nextInt {
		// Only the first elapsed interval has work: it empties the
		// tracking state and the FM demand count, so the intervals after
		// it, with no access in between, would change nothing.
		l.interval(l.nextInt)
		l.nextInt = memtypes.NextPeriod(l.nextInt, now, l.cfg.IntervalCycles)
	}
	l.stats.Requests++
	logical := uint32(uint64(addr) / uint64(l.cfg.SectorBytes))
	if logical >= l.space.Sectors() {
		logical %= l.space.Sectors()
	}
	offset := memtypes.Addr(uint64(addr) % uint64(l.cfg.SectorBytes))
	if !l.rc.Lookup(logical) {
		now = l.space.ReadRemapEntry(now, logical)
	}
	loc := l.space.Lookup(logical)
	if !loc.NM {
		l.fmDemand++
		line := uint(uint64(offset) / memtypes.CPULineBytes)
		info := l.touched[logical]
		info.mask |= 1 << line
		if logical != l.lastSeg {
			info.episodes++
		}
		// Candidates need both spatial locality (many distinct lines)
		// and reuse (revisited after leaving): one-pass streams are
		// cheap to serve from FM and not worth a swap.
		if !info.queued && info.episodes >= 3 && bits.OnesCount32(info.mask) >= l.cfg.MinLines {
			info.queued = true
			l.candQ = append(l.candQ, logical)
		}
		l.touched[logical] = info
	}
	l.lastSeg = logical
	return l.space.AccessData(now, loc, offset, write)
}

// Finish implements MemorySystem: runs the last pending interval.
func (l *LGM) Finish(now memtypes.Tick) { l.interval(now) }

// Space exposes the flat space for invariant tests.
func (l *LGM) Space() *migcommon.Space { return l.space }
