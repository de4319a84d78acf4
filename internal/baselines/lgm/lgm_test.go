package lgm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall(seed uint64) *LGM {
	cfg := Default(1<<20, 8<<20, 512, seed)
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestSpatialSegmentMigrates(t *testing.T) {
	l := newSmall(1)
	var base memtypes.Addr
	var logical uint32
	for s := uint32(0); s < l.Space().Sectors(); s++ {
		if !l.Space().Lookup(s).NM {
			logical = s
			base = memtypes.Addr(s) * 2048
			break
		}
	}
	// Touch 16 distinct lines of the sector (>= MinLines) across four
	// separate visits (>= 3 reuse episodes), with unrelated accesses in
	// between; unrelated traffic also funds the demand-paced budget.
	var noise memtypes.Addr = 1 << 22
	var now memtypes.Tick
	for visit := 0; visit < 4; visit++ {
		for i := 0; i < 4; i++ {
			now += 100
			l.Access(now, base+memtypes.Addr((visit*4+i)*64), false)
		}
		for i := 0; i < 20; i++ {
			now += 100
			noise += 2048
			l.Access(now, noise, false)
		}
	}
	l.Access(l.cfg.IntervalCycles+100, base, false)
	if !l.Space().Lookup(logical).NM {
		t.Fatal("high-spatial-locality segment not migrated")
	}
}

func TestLowSpatialSegmentStays(t *testing.T) {
	l := newSmall(2)
	var base memtypes.Addr
	var logical uint32
	for s := uint32(0); s < l.Space().Sectors(); s++ {
		if !l.Space().Lookup(s).NM {
			logical = s
			base = memtypes.Addr(s) * 2048
			break
		}
	}
	// Hammer a single line: high access count but one distinct line.
	var now memtypes.Tick
	for i := 0; i < 500; i++ {
		now += 100
		l.Access(now, base, false)
		now += 100
		l.Access(now, memtypes.Addr(1<<22)+memtypes.Addr(i)*2048, false)
	}
	l.Access(l.cfg.IntervalCycles+100, base, false)
	if l.Space().Lookup(logical).NM {
		t.Fatal("single-line segment migrated despite poor spatial locality")
	}
}

func TestBandwidthEconomization(t *testing.T) {
	// LGM must not re-fetch the lines already seen at the LLC: FM read
	// traffic for a migration of a fully touched sector is less than the
	// full sector.
	fm := memsys.New(memsys.DDR4Config())
	l := New(Default(1<<20, 8<<20, 512, 3), memsys.New(memsys.HBM2Config()), fm)
	var base memtypes.Addr
	for s := uint32(0); s < l.Space().Sectors(); s++ {
		if !l.Space().Lookup(s).NM {
			base = memtypes.Addr(s) * 2048
			break
		}
	}
	// Touch all 32 lines across four visits (with noise in between to
	// count reuse episodes and fund the budget), then cross the interval.
	var noise memtypes.Addr = 1 << 22
	var now memtypes.Tick
	for visit := 0; visit < 4; visit++ {
		for i := 0; i < 8; i++ {
			now += 100
			l.Access(now, base+memtypes.Addr((visit*8+i)*64), false)
		}
		for i := 0; i < 20; i++ {
			now += 100
			noise += 2048
			l.Access(now, noise, false)
		}
	}
	demandReads := fm.Traffic.Total().Read
	l.Access(l.cfg.IntervalCycles+100, base, false) // triggers interval migration
	if l.Stats().Migrations == 0 {
		t.Fatal("fully staged sector not migrated")
	}
	// The staged sector's own lines are all in the LLC: its migration
	// must not re-read them from FM. Other queued candidates (noise) may
	// move, so bound the growth by what those could cost.
	migrationReads := fm.Traffic.Total().Read - demandReads
	if migrationReads > uint64(l.Stats().Migrations-1)*2048+64 {
		t.Fatalf("migration re-fetched %d bytes of fully staged sector", migrationReads)
	}
}

func TestWatermarkCapsMigrations(t *testing.T) {
	cfg := Default(1<<20, 8<<20, 512, 4)
	cfg.Watermark = 2
	l := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
	// Make many segments candidates in one interval.
	count := 0
	var now memtypes.Tick
	for s := uint32(0); s < l.Space().Sectors() && count < 20; s++ {
		if l.Space().Lookup(s).NM {
			continue
		}
		base := memtypes.Addr(s) * 2048
		for i := 0; i < 10; i++ {
			now += 10
			l.Access(now, base+memtypes.Addr(i*64), false)
		}
		count++
	}
	l.Finish(now + 1)
	if l.Stats().Migrations > 2 {
		t.Fatalf("migrations %d exceed watermark 2", l.Stats().Migrations)
	}
}

func TestInvariantsUnderTraffic(t *testing.T) {
	l := newSmall(5)
	rng := rand.New(rand.NewSource(9))
	space := uint64(l.Space().Sectors()) * 2048
	var now memtypes.Tick
	for i := 0; i < 40000; i++ {
		now += 60
		l.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	l.Finish(now)
	if !l.Space().CheckInvariants() {
		t.Fatal("remap bijection broken")
	}
	s := l.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served sums %d+%d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
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
		got, want := *x, *fresh
		got.space, want.space = nil, nil
		got.candQ, want.candQ = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reset state differs from a fresh build:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestSectorPastLineMaskPanics: a sector of more lines than the line
// mask has bits fails at build instead of silently undercounting the
// lines a segment's misses touched.
func TestSectorPastLineMaskPanics(t *testing.T) {
	for _, sb := range []int{2048 + 64, 4096} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "lgm: ") {
					t.Errorf("%d-byte sectors: recovered %v, want an lgm: panic", sb, r)
				}
			}()
			cfg := Default(1<<20, 8<<20, 512, 1)
			cfg.SectorBytes = sb
			New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
		}()
	}
}
