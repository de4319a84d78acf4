// Package silcfm implements SILC-FM (Ryoo, Meswani, Prodromou, John,
// HPCA'17), the §2.2 design offering "a more flexible group approach":
// NM is organized in set-associative swap groups — an FM segment can
// occupy any way of its NM set rather than one fixed slot — and data
// moves at sub-block (64 B) granularity, interleaving sub-blocks of the
// resident segment with demand-fetched sub-blocks of FM segments.
//
// Model: NM sectors form A-way sets. FM segments showing reuse (episode
// counting, as for the other counter-based schemes) claim the LRU way of
// their set; claimed ways fill on demand at 64 B granularity with per-way
// valid/dirty masks. Displaced ways write their dirty sub-blocks back to
// the evicted segment's FM home. A set-associative remap cache fronts the
// in-NM location table.
package silcfm

import (
	"math/bits"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes SILC-FM.
type Config struct {
	SectorBytes       int
	Assoc             int // ways per NM swap-group set
	NMBytes, FMBytes  uint64
	ClaimEpisodes     int // reuse episodes before a segment claims a way
	RemapCacheEntries int
}

// Default returns the standard SILC-FM configuration.
func Default(nmBytes, fmBytes uint64, remapEntries int) Config {
	return Config{
		SectorBytes:       config.SectorBytes,
		Assoc:             4,
		NMBytes:           nmBytes,
		FMBytes:           fmBytes,
		ClaimEpisodes:     4,
		RemapCacheEntries: remapEntries,
	}
}

// way is a claimed way's sub-block state; its owner (FM segment +1, 0
// when unclaimed) and recency live in the SILC-FM's cachesim.Sets.
type way struct {
	validVec uint32
	dirtyVec uint32
}

// SILCFM implements memtypes.MemorySystem.
type SILCFM struct {
	cfg   Config
	nm    *memsys.Device
	fm    *memsys.Device
	stats memtypes.MemStats

	sets   uint32
	owners cachesim.Sets // FM segment +1 per way, LRU order per set
	ways   []way         // indexed set*Assoc+way, as owners' ways

	episodes map[uint32]uint8 // FM segment -> reuse episodes (bounded)
	lastSeg  uint32

	rc *migcommon.RemapCache
}

// New builds SILC-FM over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *SILCFM {
	nmSectors := uint32(cfg.NMBytes / uint64(cfg.SectorBytes))
	sets := nmSectors / uint32(cfg.Assoc)
	if sets == 0 {
		panic("silcfm: no NM sets")
	}
	s := &SILCFM{
		cfg:      cfg,
		nm:       nm,
		fm:       fm,
		sets:     sets,
		owners:   cachesim.NewSets(int(sets), cfg.Assoc),
		ways:     make([]way, sets*uint32(cfg.Assoc)),
		episodes: make(map[uint32]uint8, 4096),
		lastSeg:  ^uint32(0),
		rc:       migcommon.NewRemapCache(cfg.RemapCacheEntries, 16),
	}
	return s
}

// Reset implements memtypes.Resetter: it unclaims every way, forgets the
// reuse episodes and empties the remap cache.
func (s *SILCFM) Reset(uint64) {
	s.owners.Reset()
	clear(s.ways)
	clear(s.episodes)
	s.lastSeg = ^uint32(0)
	s.rc.Reset()
	s.stats = memtypes.MemStats{}
}

// Name implements MemorySystem.
func (s *SILCFM) Name() string { return "SILC-FM" }

// Stats implements MemorySystem.
func (s *SILCFM) Stats() *memtypes.MemStats { return memsys.WithTraffic(&s.stats, s.nm, s.fm) }

func (s *SILCFM) nmAddr(wayIdx uint32, off memtypes.Addr) memtypes.Addr {
	return memtypes.Addr(wayIdx)*memtypes.Addr(s.cfg.SectorBytes) + off
}

// Access implements MemorySystem.
func (s *SILCFM) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	s.stats.Requests++
	seg := uint32(uint64(addr) / uint64(s.cfg.SectorBytes))
	fmSectors := uint32(s.cfg.FMBytes / uint64(s.cfg.SectorBytes))
	if seg >= fmSectors {
		seg %= fmSectors
	}
	offset := memtypes.Addr(uint64(addr) % uint64(s.cfg.SectorBytes))
	sub := uint(offset / 64)
	fmHome := memtypes.Addr(seg)*memtypes.Addr(s.cfg.SectorBytes) + offset

	if !s.rc.Lookup(seg % s.sets) {
		// Location-table read from NM on the critical path.
		now = s.nm.AccessAs(memtypes.Metadata, now, memtypes.Addr(s.cfg.NMBytes)-memtypes.Addr(1+seg%4096)*64, 64, false)
	}

	repeat := seg == s.lastSeg
	s.lastSeg = seg

	set := int(seg % s.sets)
	if i, found := s.owners.Lookup(set, uint64(seg)+1); found {
		idx := uint32(set*s.cfg.Assoc + i)
		w := &s.ways[idx]
		if w.validVec&(1<<sub) != 0 {
			s.stats.ServedNM++
			if write {
				w.dirtyVec |= 1 << sub
			}
			return s.nm.Access(now, s.nmAddr(idx, offset), 64, write)
		}
		// Sub-block interleaving: demand-fetch this 64 B into the way.
		s.stats.ServedFM++
		done := s.fm.Access(now, fmHome, 64, false)
		s.nm.AccessBG(memtypes.Migration, done, s.nmAddr(idx, offset), 64, true)
		w.validVec |= 1 << sub
		if write {
			w.dirtyVec |= 1 << sub
		}
		return done
	}

	// Not resident: serve from FM and track reuse; claiming a way takes
	// ClaimEpisodes distinct revisits.
	s.stats.ServedFM++
	done := s.fm.Access(now, fmHome, 64, write)
	if !repeat {
		if len(s.episodes) >= 8192 {
			clear(s.episodes)
		}
		s.episodes[seg]++
		if int(s.episodes[seg]) >= s.cfg.ClaimEpisodes {
			delete(s.episodes, seg)
			s.claim(now, set, seg, sub, write)
		}
	}
	return done
}

// claim evicts the LRU way of set (writing dirty sub-blocks back to the
// old owner's FM home) and assigns it to seg with the demanded sub-block.
func (s *SILCFM) claim(now memtypes.Tick, set int, seg uint32, sub uint, write bool) {
	i, owner := s.owners.Fill(set, uint64(seg)+1)
	idx := uint32(set*s.cfg.Assoc + i)
	w := &s.ways[idx]
	if w.dirtyVec != 0 { // an unclaimed way has none
		n := bits.OnesCount32(w.dirtyVec)
		rd := s.nm.AccessBG(memtypes.Migration, now, s.nmAddr(idx, 0), n*64, false)
		s.fm.AccessBG(memtypes.Migration, rd, memtypes.Addr(owner-1)*memtypes.Addr(s.cfg.SectorBytes), n*64, true)
		s.stats.Evictions++
	}
	// The demanded sub-block was just read from FM; stage it in the way.
	s.nm.AccessBG(memtypes.Migration, now, s.nmAddr(idx, memtypes.Addr(sub)*64), 64, true)
	s.stats.Migrations++
	*w = way{validVec: 1 << sub}
	if write {
		w.dirtyVec = 1 << sub
	}
}

// Finish implements MemorySystem (no deferred work).
func (s *SILCFM) Finish(memtypes.Tick) {}

// CheckInvariants verifies no segment owns two ways of a set.
func (s *SILCFM) CheckInvariants() bool {
	for set := range int(s.sets) {
		seen := make(map[uint64]bool, s.cfg.Assoc)
		for i := range s.cfg.Assoc {
			o := s.owners.Tag(set, i)
			if o == 0 {
				continue
			}
			if seen[o] {
				return false
			}
			seen[o] = true
		}
	}
	return true
}
