package cameo

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall(seed uint64) *CAMEO {
	cfg := Default(1<<20, 8<<20, 512, seed)
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestGeometry(t *testing.T) {
	c := newSmall(1)
	if c.g.Count != 1<<20/64 {
		t.Fatalf("groups %d, want one per NM line", c.g.Count)
	}
	if c.g.K != 8 {
		t.Fatalf("k %d, want FM:NM ratio 8", c.g.K)
	}
	if !c.CheckInvariants() {
		t.Fatal("initial state invalid")
	}
}

func TestAccessSwapsLineIntoNM(t *testing.T) {
	c := newSmall(2)
	// Find a raw address resolving to an FM-resident grouped line.
	var addr memtypes.Addr
	for raw := uint32(0); raw < c.g.Units(); raw++ {
		l := c.g.Logical(raw)
		if _, _, grouped := c.g.Member(l); !grouped {
			continue
		}
		if inNM, _ := c.g.Locate(l); !inNM {
			addr = memtypes.Addr(raw) * 64
			break
		}
	}
	c.Access(0, addr, false)
	if c.Stats().Migrations != 1 {
		t.Fatalf("migrations %d, want 1 (CAMEO swaps on every FM access)", c.Stats().Migrations)
	}
	// The second access must be served from NM.
	c.Access(5000, addr, false)
	if c.Stats().ServedNM != 1 {
		t.Fatalf("line not NM-resident after swap: %+v", c.Stats())
	}
	if !c.CheckInvariants() {
		t.Fatal("group state invalid after swap")
	}
}

func TestGroupInvariantsUnderTraffic(t *testing.T) {
	c := newSmall(3)
	rng := rand.New(rand.NewSource(7))
	space := uint64(c.g.Units()) * 64
	var now memtypes.Tick
	for i := 0; i < 30000; i++ {
		now += 50
		c.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	if !c.CheckInvariants() {
		t.Fatal("group invariants violated")
	}
	s := c.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served sums %d+%d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
	}
	if s.Migrations == 0 {
		t.Fatal("no swaps under random traffic")
	}
}

func TestFineGranularityNoOverfetch(t *testing.T) {
	// CAMEO moves exactly one 64 B line per swap: FM reads are the 64 B
	// demand read of each FM-served access, plus nothing else.
	c := newSmall(4)
	var now memtypes.Tick
	for i := 0; i < 1000; i++ {
		now += 100
		c.Access(now, memtypes.Addr(i)*64, false)
	}
	s := c.Stats()
	if got := c.fm.Traffic.Total().Read; got != s.ServedFM*64 || c.fm.Traffic[memtypes.Demand].Read != got {
		t.Fatalf("FM reads %+v for %d FM-served accesses: over-fetch", c.fm.Traffic, s.ServedFM)
	}
}

func TestPinnedLinesNeverMigrate(t *testing.T) {
	c := newSmall(5)
	if c.g.Pinned == 0 {
		t.Skip("no pinned remainder in this geometry")
	}
	pinned := c.g.Units() - 1
	var raw memtypes.Addr
	for r := uint32(0); r < c.g.Units(); r++ {
		if c.g.Logical(r) == pinned {
			raw = memtypes.Addr(r) * 64
			break
		}
	}
	before := c.Stats().Migrations
	for i := 0; i < 50; i++ {
		c.Access(memtypes.Tick(i)*100, raw, false)
	}
	if c.Stats().Migrations != before {
		t.Fatal("pinned line triggered a swap")
	}
}

// TestResetRestoresBuiltState: after swapping traffic, Reset (with the
// devices reset) leaves a fresh build's layout, remap cache and counters.
func TestResetRestoresBuiltState(t *testing.T) {
	c := newSmall(6)
	rng := rand.New(rand.NewSource(6))
	space := uint64(c.g.Units()) * 64
	// A reset to the build's own seed first, then to another: each must
	// leave that seed's build.
	for _, seed := range []uint64{6, 9} {
		var now memtypes.Tick
		for i := 0; i < 20000; i++ {
			now += 50
			c.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
		}
		if c.stats.Migrations == 0 {
			t.Fatalf("seed %d: no swaps to undo", seed)
		}
		c.Reset(seed)
		c.nm.Reset()
		c.fm.Reset()
		fresh := newSmall(seed)
		for l := uint32(0); l < fresh.g.Units(); l++ {
			gotNM, got := c.g.Locate(l)
			wantNM, want := fresh.g.Locate(l)
			if gotNM != wantNM || got != want {
				t.Fatalf("seed %d: line %d: at (%v, %d) after Reset, (%v, %d) when built", seed, l, gotNM, got, wantNM, want)
			}
		}
		if !c.CheckInvariants() {
			t.Fatalf("seed %d: group invariants violated after Reset", seed)
		}
		got, want := *c, *fresh
		// The layout is compared above and by migcommon's Groups tests.
		got.g, want.g = migcommon.Groups{}, migcommon.Groups{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reset state differs from a fresh build", seed)
		}
	}
}
