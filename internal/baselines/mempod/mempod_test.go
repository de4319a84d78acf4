package mempod

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall(seed uint64) *MemPod {
	cfg := Default(1<<20, 8<<20, 512, seed)
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestHotSegmentMigratesAfterInterval(t *testing.T) {
	m := newSmall(1)
	// Find an FM-resident sector and hammer it through one interval.
	var addr memtypes.Addr
	for l := uint32(0); l < m.Space().Sectors(); l++ {
		if !m.Space().Lookup(l).NM {
			addr = memtypes.Addr(l) * 2048
			break
		}
	}
	var now memtypes.Tick
	for i := 0; i < 1000; i++ {
		now += 200
		m.Access(now, addr, false)
	}
	// Crossing the interval boundary triggers migration of the MEA-hot
	// segment; the access after the boundary must be served from NM.
	m.Access(m.cfg.IntervalCycles+1000, addr, false)
	logical := uint32(uint64(addr) / 2048)
	if !m.Space().Lookup(logical).NM {
		t.Fatal("hot segment not migrated at interval end")
	}
	if m.Stats().Migrations == 0 {
		t.Fatal("no migrations recorded")
	}
}

func TestMEATracksAtMostConfiguredCounters(t *testing.T) {
	m := newSmall(2)
	for seg := uint32(0); seg < 1000; seg++ {
		m.observe(seg)
	}
	if len(m.mea) > m.cfg.MEACounters {
		t.Fatalf("MEA holds %d entries, cap %d", len(m.mea), m.cfg.MEACounters)
	}
}

func TestMEAMajorityElementSurvives(t *testing.T) {
	m := newSmall(3)
	// One segment with strict majority must survive arbitrary noise.
	for i := 0; i < 5000; i++ {
		m.observe(42)
		if i%2 == 0 {
			m.observe(uint32(1000 + i)) // unique noise
		}
	}
	for _, e := range m.mea {
		if e.seg == 42 && e.count > m.debt {
			return
		}
	}
	t.Fatal("majority element lost by MEA")
}

func TestInvariantsUnderTraffic(t *testing.T) {
	m := newSmall(4)
	rng := rand.New(rand.NewSource(7))
	space := uint64(m.Space().Sectors()) * 2048
	var now memtypes.Tick
	for i := 0; i < 40000; i++ {
		now += 60
		m.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	m.Finish(now)
	if !m.Space().CheckInvariants() {
		t.Fatal("remap bijection broken")
	}
	s := m.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served sums %d+%d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
	}
}

func TestRemapCacheMissesChargeNMMeta(t *testing.T) {
	nm := memsys.New(memsys.HBM2Config())
	m := New(Default(1<<20, 8<<20, 512, 5), nm, memsys.New(memsys.DDR4Config()))
	rng := rand.New(rand.NewSource(8))
	space := uint64(m.Space().Sectors()) * 2048
	var now memtypes.Tick
	for i := 0; i < 5000; i++ {
		now += 60
		m.Access(now, memtypes.Addr(rng.Uint64()%space), false)
	}
	if nm.Traffic[memtypes.Metadata].Read == 0 {
		t.Fatal("wide random traffic produced no remap-cache misses")
	}
}

// TestResetRestoresBuiltState: after traffic that swaps sectors across
// several intervals, Reset leaves exactly a fresh build's state: every
// sector's initial location, NM owners that match it, and every
// other field of the design.
func TestResetRestoresBuiltState(t *testing.T) {
	x := newSmall(3)
	rng := rand.New(rand.NewSource(3))
	// A reset to the build's own seed first, then to another: each must
	// leave that seed's build.
	for _, seed := range []uint64{3, 5} {
		var now memtypes.Tick
		for i := 0; i < 200000; i++ {
			now += memtypes.Tick(rng.Intn(20))
			addr := memtypes.Addr(rng.Intn(256)) << 11 // a hot set of sectors
			if i%4 == 0 {
				addr = memtypes.Addr(rng.Int63n(8 << 20))
			}
			x.Access(now, addr&^63, rng.Intn(4) == 0)
		}
		x.Finish(now)
		if x.stats.Migrations == 0 {
			t.Fatalf("seed %d: no swaps to undo", seed)
		}
		x.Reset(seed)
		fresh := newSmall(seed)
		for l := uint32(0); l < fresh.space.Sectors(); l++ {
			if x.space.Lookup(l) != fresh.space.Lookup(l) {
				t.Fatalf("seed %d: sector %d: placement %+v after Reset, %+v when built", seed, l, x.space.Lookup(l), fresh.space.Lookup(l))
			}
		}
		if !x.space.CheckInvariants() {
			t.Fatalf("seed %d: NM owners do not match the restored placement", seed)
		}
		if len(x.live) != 0 {
			t.Fatalf("seed %d: Reset kept %d interval scratch entries", seed, len(x.live))
		}
		got, want := *x, *fresh
		got.space, want.space = nil, nil
		got.mea, want.mea = nil, nil
		got.live, want.live = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reset state differs from a fresh build:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestSortMatchesSortSlice: the interval's sort puts MEA entries in the
// order sort.Slice with count > gave them, ties included, so the
// segments a budget-capped interval migrates stay the same.
func TestSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(80)
		counts := 1 + rng.Intn(6) // few distinct counts: many ties
		got := make([]meaEntry, n)
		for i := range got {
			got[i] = meaEntry{seg: uint32(i), count: uint32(rng.Intn(counts))}
		}
		want := slices.Clone(got)
		sort.Slice(want, func(i, j int) bool { return want[i].count > want[j].count })
		sortHottest(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d):\n got %v\nwant %v", trial, n, got, want)
		}
	}
}

// TestIntervalAllocatesNothing: an interval over a full MEA sorts its
// survivors in scratch the design keeps.
func TestIntervalAllocatesNothing(t *testing.T) {
	m := newSmall(5)
	fill := func() {
		for seg := uint32(0); seg < uint32(m.cfg.MEACounters); seg++ {
			for range 1 + seg%5 {
				m.observe(seg)
			}
		}
	}
	fill()
	if len(m.mea) != m.cfg.MEACounters {
		t.Fatalf("MEA holds %d entries, want %d", len(m.mea), m.cfg.MEACounters)
	}
	if allocs := testing.AllocsPerRun(20, func() { fill(); m.interval(0) }); allocs != 0 {
		t.Errorf("an interval allocated %v times", allocs)
	}
}
