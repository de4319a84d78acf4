package chameleon

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall(seed uint64) *Chameleon {
	cfg := Default(1<<20, 8<<20, 128<<10, 512, seed)
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

// location is where a logical sector lives: NM or FM, and the unit.
type location struct {
	inNM bool
	unit uint32
}

func locate(c *Chameleon, logical uint32) location {
	inNM, unit := c.g.Locate(logical)
	return location{inNM, unit}
}

// inNM reports whether the logical sector lives in NM.
func inNM(c *Chameleon, logical uint32) bool { return locate(c, logical).inNM }

// grouped reports whether the logical sector belongs to a group.
func grouped(c *Chameleon, logical uint32) bool {
	_, _, ok := c.g.Member(logical)
	return ok
}

func TestGroupGeometry(t *testing.T) {
	c := newSmall(1)
	if c.g.Count == 0 || c.g.K == 0 {
		t.Fatalf("degenerate grouping: groups=%d k=%d", c.g.Count, c.g.K)
	}
	// Every logical sector must resolve to exactly one location.
	seen := make(map[location]bool)
	nmCount := 0
	for l := uint32(0); l < c.g.Units(); l++ {
		loc := locate(c, l)
		if loc.inNM {
			nmCount++
		}
		if seen[loc] {
			t.Fatalf("two sectors at the same location (logical %d)", l)
		}
		seen[loc] = true
	}
	if nmCount != int(c.g.Count) {
		t.Fatalf("NM residents %d, want one per group (%d)", nmCount, c.g.Count)
	}
}

func TestCompetingCountersSwapAfterThreshold(t *testing.T) {
	c := newSmall(2)
	// Pick a raw address whose permuted sector is an FM member of some
	// group, and revisit it repeatedly with unrelated accesses in between
	// (consecutive accesses count as one reuse episode) until the
	// competing counter crosses the threshold and swap credit suffices.
	var addr memtypes.Addr
	var logical uint32
	for raw := uint32(0); raw < c.g.Units(); raw++ {
		l := c.g.Logical(raw)
		if !inNM(c, l) && grouped(c, l) {
			addr = memtypes.Addr(raw) * 2048
			logical = l
			break
		}
	}
	var now memtypes.Tick
	for i := 0; i < 200; i++ {
		now += 300
		c.Access(now, addr, false)
		now += 300
		// Unrelated FM accesses break the burst and earn swap credit.
		c.Access(now, memtypes.Addr(1000+i)*2048, false)
	}
	if !inNM(c, logical) {
		t.Fatal("persistently hot FM member never swapped into NM")
	}
	if c.Stats().Migrations == 0 {
		t.Fatal("no migration recorded")
	}
}

func TestOccupantAccessesDecayCounter(t *testing.T) {
	c := newSmall(3)
	// Find a group with an FM member and locate a raw address for both
	// the member and its group's NM occupant.
	var fmRaw, occRaw memtypes.Addr
	var fmLogical uint32
	found := false
	for raw := uint32(0); raw < c.g.Units() && !found; raw++ {
		l := c.g.Logical(raw)
		if inNM(c, l) || !grouped(c, l) {
			continue
		}
		g, _, _ := c.g.Member(l)
		occLogical := c.g.Occupant(g)*c.g.Count + g
		for raw2 := uint32(0); raw2 < c.g.Units(); raw2++ {
			if c.g.Logical(raw2) == occLogical {
				fmRaw = memtypes.Addr(raw) * 2048
				occRaw = memtypes.Addr(raw2) * 2048
				fmLogical = l
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no suitable group found")
	}
	var now memtypes.Tick
	// Interleave: occupant accessed as often as the challenger; the
	// competing counter must not reach the threshold.
	for i := 0; i < 200; i++ {
		now += 300
		c.Access(now, fmRaw, false)
		now += 300
		c.Access(now, occRaw, false)
	}
	if inNM(c, fmLogical) {
		t.Fatal("challenger swapped in despite equally hot occupant")
	}
}

func TestCacheModeSliceServesFMData(t *testing.T) {
	c := newSmall(4)
	var addr memtypes.Addr
	for raw := uint32(0); raw < c.g.Units(); raw++ {
		if !inNM(c, c.g.Logical(raw)) {
			addr = memtypes.Addr(raw) * 2048
			break
		}
	}
	// Revisit the sector with unrelated accesses in between so the
	// install-reuse threshold is crossed and enough demand credit is
	// earned for the fill, then hit the installed copy.
	var now memtypes.Tick
	for i := 0; i < 40; i++ {
		now += 1000
		c.Access(now, addr, false)
		now += 1000
		c.Access(now, memtypes.Addr(5000+i)*2048, false)
	}
	c.Access(now+1000, addr, false)
	if c.Stats().ServedNM == 0 {
		t.Fatal("cache-mode slice never served a request")
	}
}

func TestPinnedSectorsStayInFM(t *testing.T) {
	c := newSmall(5)
	if c.g.Pinned == 0 {
		t.Skip("configuration has no pinned remainder")
	}
	pinnedLogical := c.g.Units() - 1
	var raw memtypes.Addr
	for r := uint32(0); r < c.g.Units(); r++ {
		if c.g.Logical(r) == pinnedLogical {
			raw = memtypes.Addr(r) * 2048
			break
		}
	}
	var now memtypes.Tick
	for i := 0; i < 100; i++ {
		now += 300
		c.Access(now, raw, false)
		now += 300
		c.Access(now, memtypes.Addr(7000+i)*2048, false)
	}
	if inNM(c, pinnedLogical) {
		t.Fatal("pinned sector migrated")
	}
}

func TestServedCountersConsistent(t *testing.T) {
	c := newSmall(6)
	rng := rand.New(rand.NewSource(10))
	space := uint64(c.g.Units()) * 2048
	var now memtypes.Tick
	for i := 0; i < 40000; i++ {
		now += 60
		c.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	s := c.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served sums %d+%d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
	}
	// Uniform random traffic has no dominant member per group, so the
	// competing counters correctly swap rarely or never; skewed traffic
	// (TestCompetingCountersSwapAfterThreshold) covers the swap path.
}

func TestLocationsStayBijectiveUnderSwaps(t *testing.T) {
	c := newSmall(7)
	rng := rand.New(rand.NewSource(11))
	space := uint64(c.g.Units()) * 2048
	var now memtypes.Tick
	for i := 0; i < 40000; i++ {
		now += 60
		c.Access(now, memtypes.Addr(rng.Uint64()%space), false)
	}
	seen := make(map[location]bool)
	for l := uint32(0); l < c.g.Units(); l++ {
		loc := locate(c, l)
		if seen[loc] {
			t.Fatalf("aliasing after swaps at logical %d", l)
		}
		seen[loc] = true
	}
	if !c.CheckInvariants() {
		t.Fatal("group invariants violated")
	}
}

// TestResetRestoresBuiltState: after traffic that swaps group members and
// installs cache-mode segments, Reset (with the devices reset) leaves
// exactly a fresh build's state.
func TestResetRestoresBuiltState(t *testing.T) {
	c := newSmall(5)
	rng := rand.New(rand.NewSource(5))
	// A reset to the build's own seed first, then to another: each must
	// leave that seed's build.
	for _, seed := range []uint64{5, 9} {
		var now memtypes.Tick
		for i := 0; i < 200000; i++ {
			now += memtypes.Tick(rng.Intn(40))
			addr := memtypes.Addr(rng.Intn(32)) << 11 // a hot set smaller than the cache slice
			if i%4 == 0 {
				addr = memtypes.Addr(rng.Int63n(8 << 20))
			}
			c.Access(now, addr&^63, rng.Intn(4) == 0)
		}
		c.Finish(now)
		if c.stats.Migrations == 0 || len(c.cache.where) == 0 {
			t.Fatalf("seed %d: traffic swapped %d, installed %d", seed, c.stats.Migrations, len(c.cache.where))
		}
		counted := map[uint32]bool{}
		for _, g := range c.countedGrps {
			if counted[g] {
				t.Fatalf("seed %d: group %d listed twice for Reset", seed, g)
			}
			counted[g] = true
		}
		c.Reset(seed)
		c.nm.Reset()
		c.fm.Reset()
		if len(c.countedGrps) != 0 || !c.CheckInvariants() {
			t.Fatalf("seed %d: undo state not empty or groups inconsistent after Reset", seed)
		}
		fresh := newSmall(seed)
		for l := uint32(0); l < fresh.g.Units(); l++ {
			if locate(c, l) != locate(fresh, l) {
				t.Fatalf("seed %d: sector %d: at %+v after Reset, %+v when built", seed, l, locate(c, l), locate(fresh, l))
			}
		}
		got, want := *c, *fresh
		got.countedGrps = nil
		// The layout is compared above and by migcommon's Groups tests.
		got.g, want.g = migcommon.Groups{}, migcommon.Groups{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reset state differs from a fresh build", seed)
		}
	}
}
