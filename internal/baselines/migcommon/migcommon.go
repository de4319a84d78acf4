// Package migcommon holds the substrate shared by the flat-address-space
// migration schemes:
//
//   - Space, used by MemPod and LGM: an all-to-all sector remap table
//     over NM+FM with the owners of the NM slots, and the swap that
//     exchanges an FM sector with an NM victim. An FM slot's occupant
//     is implied by the remap table and kept nowhere else. Both tables
//     are write overlays (placement.Table) on the shared placement: the
//     permutation and the NM prefix of its inverse. So building a space
//     allocates no table memory, a run allocates for the entries its
//     swaps write, and Reset empties the overlays and keeps them; no
//     swap is logged.
//   - Groups, used by CAMEO, Chameleon and POM: a congruence-group
//     layout in which each NM unit holds one member of its group, and
//     the swap that exchanges a member with the NM occupant. No swap
//     is logged either: Reset rewrites the groups that moved, each
//     listed once, to their closed-form initial layout.
//   - RemapCache, used by all five and by SILC-FM: the on-chip cache of
//     remap entries, sized equal to Hybrid2's XTA for the paper's fair
//     comparison. It is a few lines over cachesim.Sets, the tag store
//     and true-LRU policy the LLC and the XTA use too.
package migcommon

import (
	"fmt"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/placement"
)

// Loc is the physical location of a logical sector.
type Loc struct {
	NM  bool
	Idx uint32 // slot index within the device's sector array
}

// Space is a flat NM+FM address space with all-to-all sector remapping.
// Physical slots are numbered NM first: slot p < NMSectors is NM slot p,
// and slot NMSectors+i is FM slot i. Logical sector s of the processor
// physical address space lives at physical slot remap[s]; owner maps
// each NM slot back to the logical sector in it, the only direction a
// swap reads. An FM slot's occupant is the sector remap sends there.
type Space struct {
	SectorBytes int
	NMSectors   uint32
	FMSectors   uint32

	remap placement.Table // logical sector -> physical slot
	owner placement.Table // NM slot -> logical sector

	nm, fm *memsys.Device
	stats  *memtypes.MemStats

	// remapTableBase addresses the in-NM remap table for metadata traffic.
	remapTableBase memtypes.Addr
}

// NewSpace builds the space with the paper's initial page placement:
// logical sectors are distributed randomly over NM and FM proportionally
// to their capacities (§4, "memory pages are allocated randomly ...").
// The permutation is derived from seed, so runs are reproducible.
func NewSpace(sectorBytes int, nmBytes, fmBytes uint64, nm, fm *memsys.Device, stats *memtypes.MemStats, seed uint64) *Space {
	nmSec := uint32(nmBytes / uint64(sectorBytes))
	fmSec := uint32(fmBytes / uint64(sectorBytes))
	total := nmSec + fmSec
	s := &Space{
		SectorBytes:    sectorBytes,
		NMSectors:      nmSec,
		FMSectors:      fmSec,
		remap:          placement.PermTable(seed, int(total)),
		owner:          placement.InverseTable(seed, int(total), int(nmSec)),
		nm:             nm,
		fm:             fm,
		stats:          stats,
		remapTableBase: memtypes.Addr(nmBytes) - memtypes.Addr(total)*8,
	}
	return s
}

// Reset restores the initial placement NewSpace builds at seed: it
// empties the tables' overlays of the entries the run's swaps wrote and
// points them at seed's placement, which costs a table lookup in the
// placement memo when the seed changes and nothing when it does not.
// The counters belong to the design, which resets them itself.
func (s *Space) Reset(seed uint64) {
	s.remap.Reset(seed)
	s.owner.Reset(seed)
}

// Sectors returns the number of logical sectors in the flat space.
func (s *Space) Sectors() uint32 { return s.NMSectors + s.FMSectors }

// Stats returns the counters the space shares with its design, with the
// byte counts of its devices.
func (s *Space) Stats() *memtypes.MemStats { return memsys.WithTraffic(s.stats, s.nm, s.fm) }

// Lookup returns the physical location of a logical sector.
func (s *Space) Lookup(logical uint32) Loc {
	p := s.remap.Get(logical)
	if p < s.NMSectors {
		return Loc{NM: true, Idx: p}
	}
	return Loc{Idx: p - s.NMSectors}
}

// DataAddr returns the device byte address of a physical location.
func (s *Space) DataAddr(l Loc) memtypes.Addr {
	return memtypes.Addr(l.Idx) * memtypes.Addr(s.SectorBytes)
}

// AccessData performs a 64 B data access at location l, a sector's
// Lookup, and returns completion time, recording served-from counters.
func (s *Space) AccessData(now memtypes.Tick, l Loc, offset memtypes.Addr, write bool) memtypes.Tick {
	addr := s.DataAddr(l) + offset
	if l.NM {
		s.stats.ServedNM++
		return s.nm.Access(now, addr, 64, write)
	}
	s.stats.ServedFM++
	return s.fm.Access(now, addr, 64, write)
}

// ReadRemapEntry models an in-NM remap-table read (remap-cache miss):
// one 64 B NM access on the critical path.
func (s *Space) ReadRemapEntry(now memtypes.Tick, logical uint32) memtypes.Tick {
	return s.nm.AccessAs(memtypes.Metadata, now, s.remapTableBase+memtypes.Addr(logical/8)*64, 64, false)
}

// writeRemapEntry models a background remap-table update.
func (s *Space) writeRemapEntry(now memtypes.Tick, logical uint32) {
	s.nm.AccessBG(memtypes.Metadata, now, s.remapTableBase+memtypes.Addr(logical/8)*64, 64, true)
}

// Swap exchanges logical sector a (currently in FM) with the occupant of
// NM slot nmSlot (below NMSectors). It charges the full data movement —
// read both sectors, write both sectors — plus the two remap-table
// updates, starting at now. fmSkipBytes, in [0, SectorBytes], reduces
// the FM->NM read (LGM's bandwidth economization for lines already
// present in the LLC). Returns the displaced logical sector.
func (s *Space) Swap(now memtypes.Tick, a uint32, nmSlot uint32, fmSkipBytes int) uint32 {
	la := s.Lookup(a)
	if la.NM {
		panic("migcommon: swap source already in NM")
	}
	if nmSlot >= s.NMSectors {
		panic(fmt.Sprintf("migcommon: swap into NM slot %d of %d", nmSlot, s.NMSectors))
	}
	sb := s.SectorBytes
	if fmSkipBytes < 0 || fmSkipBytes > sb {
		panic(fmt.Sprintf("migcommon: swap skips %d bytes of a %d-byte sector", fmSkipBytes, sb))
	}
	b := s.owner.Get(nmSlot)
	lb := Loc{NM: true, Idx: nmSlot}
	rdA := sb - fmSkipBytes
	// Read A from FM, read B from NM (can overlap), then write A to NM
	// and B to FM.
	tA := s.nm.AccessBG(memtypes.Migration, now, s.DataAddr(lb), sb, false) // read victim B from NM
	tB := s.fm.AccessBG(memtypes.Migration, now, s.DataAddr(la), rdA, false)
	end := max(tA, tB)
	s.nm.AccessBG(memtypes.Migration, end, s.DataAddr(lb), sb, true) // A into NM slot
	s.fm.AccessBG(memtypes.Migration, end, s.DataAddr(la), sb, true) // B into A's old FM slot
	s.stats.Migrations++

	// Update mappings: A takes the NM slot, B takes A's old FM slot,
	// which the remap entry alone records.
	s.remap.Set(a, nmSlot)
	s.owner.Set(nmSlot, a)
	s.remap.Set(b, s.NMSectors+la.Idx)
	s.writeRemapEntry(end, a)
	s.writeRemapEntry(end, b)
	return b
}

// CheckInvariants verifies that remap is a bijection onto the physical
// slots and that owner names the sector remap places at every NM slot;
// used by tests.
func (s *Space) CheckInvariants() bool {
	seen := make([]bool, s.Sectors())
	for logical := range s.Sectors() {
		p := s.remap.Get(logical)
		if p >= s.Sectors() || seen[p] || p < s.NMSectors && s.owner.Get(p) != logical {
			return false
		}
		seen[p] = true
	}
	return true
}

// RemapCache is the on-chip cache of remap-table entries. Its capacity is
// set equal to Hybrid2's XTA in the paper's comparisons (§5, 512 KB).
// Every design with a set-associative remap cache (MemPod, LGM,
// Chameleon, CAMEO, SILC-FM) uses this one: a cachesim.Sets keyed by
// the entry's key +1, so it replaces as the LLC and the XTA do.
type RemapCache struct {
	sets    cachesim.Sets
	setMask uint32
}

// NewRemapCache builds a remap cache of the given entry count; assoc must
// be at most cachesim.MaxAssoc.
func NewRemapCache(entries, assoc int) *RemapCache {
	if assoc <= 0 || assoc > cachesim.MaxAssoc {
		panic("migcommon: remap cache associativity must be 1 to 16")
	}
	sets := entries / assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("migcommon: remap cache sets must be a positive power of two")
	}
	return &RemapCache{sets: cachesim.NewSets(sets, assoc), setMask: uint32(sets - 1)}
}

// Reset empties the cache.
func (r *RemapCache) Reset() { r.sets.Reset() }

// Lookup returns whether the entry of key (a logical sector, or the
// group or set number a design keys its remap entries by) is cached,
// inserting it in the set's least recently used way on a miss.
func (r *RemapCache) Lookup(key uint32) bool {
	_, _, hit := r.sets.Access(int(key&r.setMask), uint64(key)+1)
	return hit
}
