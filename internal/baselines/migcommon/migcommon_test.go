package migcommon

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSpace(seed uint64) (*Space, *memtypes.MemStats) {
	stats := &memtypes.MemStats{}
	s := NewSpace(2048, 1<<20, 8<<20, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()), stats, seed)
	return s, stats
}

func TestInitialPlacementBijective(t *testing.T) {
	s, _ := newSpace(3)
	if !s.CheckInvariants() {
		t.Fatal("initial placement not bijective")
	}
	if s.Sectors() != s.NMSectors+s.FMSectors {
		t.Fatal("sector count mismatch")
	}
}

func TestPlacementProportionalToCapacity(t *testing.T) {
	s, _ := newSpace(5)
	inNM := 0
	for l := uint32(0); l < s.Sectors(); l++ {
		if s.Lookup(l).NM {
			inNM++
		}
	}
	frac := float64(inNM) / float64(s.Sectors())
	want := float64(s.NMSectors) / float64(s.Sectors())
	if frac < want*0.99 || frac > want*1.01 {
		t.Fatalf("NM-resident fraction %.4f, want %.4f", frac, want)
	}
}

func TestPlacementSeeded(t *testing.T) {
	a, _ := newSpace(7)
	b, _ := newSpace(7)
	c, _ := newSpace(8)
	same, diff := true, false
	for l := uint32(0); l < a.Sectors(); l++ {
		if a.Lookup(l) != b.Lookup(l) {
			same = false
		}
		if a.Lookup(l) != c.Lookup(l) {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed gave different placements")
	}
	if !diff {
		t.Fatal("different seeds gave identical placements")
	}
}

func TestSwapMovesSectorAndPreservesBijection(t *testing.T) {
	s, stats := newSpace(9)
	var fmSector uint32
	for l := uint32(0); l < s.Sectors(); l++ {
		if !s.Lookup(l).NM {
			fmSector = l
			break
		}
	}
	displaced := s.Swap(0, fmSector, 0, 0)
	if !s.Lookup(fmSector).NM {
		t.Fatal("swapped sector not in NM")
	}
	if s.Lookup(displaced).NM {
		t.Fatal("displaced sector still in NM")
	}
	if !s.CheckInvariants() {
		t.Fatal("bijection broken by swap")
	}
	if stats.Migrations != 1 {
		t.Fatalf("migrations %d, want 1", stats.Migrations)
	}
	// Full swap traffic: sector each way on both devices + 2 remap writes.
	if got := s.fm.Traffic[memtypes.Migration]; got != (memtypes.Bytes{Read: 2048, Write: 2048}) {
		t.Fatalf("FM migration traffic %+v, want 2048/2048", got)
	}
	if got := s.nm.Traffic[memtypes.Metadata].Write; got != 128 {
		t.Fatalf("remap-table writes %d bytes, want 128", got)
	}
}

func TestSwapSkipBytesReducesFMRead(t *testing.T) {
	s, _ := newSpace(11)
	var fmSector uint32
	for l := uint32(0); l < s.Sectors(); l++ {
		if !s.Lookup(l).NM {
			fmSector = l
			break
		}
	}
	s.Swap(0, fmSector, 0, 512)
	if got := s.fm.Traffic.Total().Read; got != 2048-512 {
		t.Fatalf("FM read %d, want %d", got, 2048-512)
	}
}

// TestSwapOutsideSpacePanics: a swap that would skip fewer than 0 or
// more than all of the sector's bytes fails loudly instead of clamping
// the FM read, and so does a swap into a slot past the NM slots.
func TestSwapOutsideSpacePanics(t *testing.T) {
	for _, tc := range []struct{ nmSlot, skip int }{{0, -1}, {0, 2049}, {512, 0}} {
		s, _ := newSpace(12)
		var fmSector uint32
		for l := uint32(0); l < s.Sectors(); l++ {
			if !s.Lookup(l).NM {
				fmSector = l
				break
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "migcommon: ") {
					t.Errorf("%+v: recovered %v, want a migcommon: panic", tc, r)
				}
			}()
			s.Swap(0, fmSector, uint32(tc.nmSlot), tc.skip)
		}()
	}
}

func TestSwapFromNMPanics(t *testing.T) {
	s, _ := newSpace(13)
	var nmSector uint32
	for l := uint32(0); l < s.Sectors(); l++ {
		if s.Lookup(l).NM {
			nmSector = l
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("swap of NM-resident sector did not panic")
		}
	}()
	s.Swap(0, nmSector, 0, 0)
}

func TestRandomSwapsKeepBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _ := newSpace(uint64(seed) + 1)
		for i := 0; i < 200; i++ {
			l := uint32(rng.Intn(int(s.Sectors())))
			if s.Lookup(l).NM {
				continue
			}
			slot := uint32(rng.Intn(int(s.NMSectors)))
			s.Swap(memtypes.Tick(i*100), l, slot, 0)
		}
		for p := range s.NMSectors {
			if s.remap.Get(s.owner.Get(p)) != p {
				return false
			}
		}
		return s.CheckInvariants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessDataServedCounters(t *testing.T) {
	s, stats := newSpace(15)
	var nmL, fmL uint32
	foundNM, foundFM := false, false
	for l := uint32(0); l < s.Sectors(); l++ {
		if s.Lookup(l).NM && !foundNM {
			nmL, foundNM = l, true
		}
		if !s.Lookup(l).NM && !foundFM {
			fmL, foundFM = l, true
		}
	}
	s.AccessData(0, s.Lookup(nmL), 0, false)
	s.AccessData(0, s.Lookup(fmL), 0, true)
	if stats.ServedNM != 1 || stats.ServedFM != 1 {
		t.Fatalf("served NM/FM = %d/%d, want 1/1", stats.ServedNM, stats.ServedFM)
	}
	if nm, fm := s.nm.Traffic[memtypes.Demand], s.fm.Traffic[memtypes.Demand]; nm.Read != 64 || fm.Write != 64 {
		t.Fatalf("demand traffic NM %+v FM %+v, want NM read 64, FM write 64", nm, fm)
	}
}

func TestRemapCacheHitMissBehaviour(t *testing.T) {
	rc := NewRemapCache(64, 16)
	if rc.Lookup(5) {
		t.Fatal("cold lookup hit")
	}
	if !rc.Lookup(5) {
		t.Fatal("second lookup missed")
	}
	// Fill set 1 beyond capacity: 4 sets, entries mapping to set 1 are
	// logical = 1 mod 4; 17 of them overflow the 16 ways.
	for i := 0; i < 17; i++ {
		rc.Lookup(uint32(1 + 4*i))
	}
	if rc.Lookup(1) { // LRU entry 1 must have been evicted
		t.Fatal("LRU entry survived overflow")
	}
}

func TestRemapCacheBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{
		{48, 16}, // 3 sets: not a power of two
		{64, 32}, // beyond the 16 ways a cachesim.Order tracks
		{64, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", g)
				}
			}()
			NewRemapCache(g[0], g[1])
		}()
	}
}

// TestSpaceResetRestoresPlacement: Reset restores the seeded initial
// placement after random swaps, every remap entry and every NM slot's
// owner equal to a fresh space's, and a second run of the same swaps on
// the reset space writes into the table memory the first run left: it
// allocates nothing.
func TestSpaceResetRestoresPlacement(t *testing.T) {
	s, _ := newSpace(4)
	type swap struct{ a, nmSlot uint32 }
	var swaps []swap
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		a := uint32(rng.Intn(int(s.Sectors())))
		if !s.Lookup(a).NM {
			nmSlot := uint32(rng.Intn(int(s.NMSectors)))
			s.Swap(memtypes.Tick(i), a, nmSlot, 0)
			swaps = append(swaps, swap{a, nmSlot})
		}
	}
	s.Reset(4)
	fresh, _ := newSpace(4)
	for i := range s.Sectors() {
		if s.remap.Get(i) != fresh.remap.Get(i) {
			t.Fatalf("sector %d: remap %d after Reset, %d when built", i, s.remap.Get(i), fresh.remap.Get(i))
		}
	}
	for p := range s.NMSectors {
		if s.owner.Get(p) != fresh.owner.Get(p) {
			t.Fatalf("NM slot %d: owner %d after Reset, %d when built", p, s.owner.Get(p), fresh.owner.Get(p))
		}
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i, w := range swaps {
			s.Swap(memtypes.Tick(i), w.a, w.nmSlot, 0)
		}
		s.Reset(4)
	}); allocs != 0 {
		t.Errorf("second run of the same swaps allocated %v times", allocs)
	}
}

// TestSpaceCheckInvariantsDetectsCorruption: a remap entry shared by
// two sectors, a remap entry past the last slot and an NM owner that is
// not the sector remap places there each fail the check.
func TestSpaceCheckInvariantsDetectsCorruption(t *testing.T) {
	s, _ := newSpace(6)
	s.remap.Set(1, s.remap.Get(2)) // sectors 1 and 2 in one slot
	if s.CheckInvariants() {
		t.Error("duplicated remap slot passed")
	}
	s, _ = newSpace(6)
	s.remap.Set(3, s.Sectors())
	if s.CheckInvariants() {
		t.Error("remap entry past the last slot passed")
	}
	s, _ = newSpace(6)
	s.owner.Set(0, s.owner.Get(0)+1)
	if s.CheckInvariants() {
		t.Error("wrong NM owner passed")
	}
}

func TestRemapCacheReset(t *testing.T) {
	r := NewRemapCache(64, 4)
	for i := uint32(0); i < 1000; i++ {
		r.Lookup(i * 7 % 97)
	}
	r.Reset()
	if !reflect.DeepEqual(r, NewRemapCache(64, 4)) {
		t.Error("reset remap cache differs from a fresh one")
	}
}
