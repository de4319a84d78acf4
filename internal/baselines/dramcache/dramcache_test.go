package dramcache

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func devices() (*memsys.Device, *memsys.Device) {
	return memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config())
}

func TestMissFetchesWholeLineHitServesFromNM(t *testing.T) {
	nm, fm := devices()
	c := New(Ideal(1<<20, 256), nm, fm)
	c.Access(0, 0x1000, false)
	s := c.Stats()
	if got := fm.Traffic[memtypes.Demand].Read; s.ServedFM != 1 || got != 256 {
		t.Fatalf("miss: served=%d fmRead=%d, want 1/256", s.ServedFM, got)
	}
	if got := nm.Traffic[memtypes.Fill].Write; got != 256 {
		t.Fatalf("fill wrote %d bytes to NM, want 256", got)
	}
	c.Access(0, 0x1040, false) // same 256 B line
	if s.ServedNM != 1 {
		t.Fatalf("same-line access not served from NM: %+v", s)
	}
}

func TestHitFasterThanMiss(t *testing.T) {
	nm, fm := devices()
	c := New(Ideal(1<<20, 256), nm, fm)
	missDone := c.Access(0, 0, false)
	base := missDone + 1000 // quiesce
	hitDone := c.Access(base, 0, false) - base
	if hitDone >= missDone {
		t.Fatalf("hit latency %d not below miss latency %d", hitDone, missDone)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	nm, fm := devices()
	// Tiny direct-mapped-ish cache: 2 sets x 16 ways x 64 B = 2 KB.
	c := New(Config{Name: "IDEAL", NMBytes: 2048, LineBytes: 64, Assoc: 16}, nm, fm)
	c.Access(0, 0, true) // dirty line at set 0
	// Fill set 0 (same set: stride 128 bytes) until 0 is evicted.
	for i := 1; i <= 16; i++ {
		c.Access(0, memtypes.Addr(i*128), false)
	}
	if fm.Traffic[memtypes.Writeback].Write == 0 {
		t.Fatal("dirty eviction produced no FM write-back")
	}
}

func TestWastedDataGrowsWithLineSize(t *testing.T) {
	// A single 64 B touch per line: larger lines waste more.
	run := func(line int) float64 {
		nm, fm := devices()
		c := New(Ideal(1<<22, line), nm, fm)
		var now memtypes.Tick
		for i := 0; i < 2000; i++ {
			// Stride of one line: touch one chunk per line.
			now = c.Access(now, memtypes.Addr(i*line), false)
		}
		c.Finish(now)
		return c.Stats().WastedFrac()
	}
	small, large := run(64), run(1024)
	if small != 0 {
		t.Fatalf("64 B lines wasted %f, want 0", small)
	}
	if large < 0.9 {
		t.Fatalf("1 KB lines with single-chunk use wasted only %f", large)
	}
}

func TestSequentialUseWastesNothing(t *testing.T) {
	nm, fm := devices()
	c := New(Ideal(1<<22, 1024), nm, fm)
	var now memtypes.Tick
	for a := memtypes.Addr(0); a < 1<<20; a += 64 {
		now = c.Access(now, a, false)
	}
	c.Finish(now)
	if w := c.Stats().WastedFrac(); w > 0.01 {
		t.Fatalf("sequential scan wasted %f of fetched data", w)
	}
}

func TestDFCChargesMetadata(t *testing.T) {
	nm, fm := devices()
	ideal := New(Ideal(1<<20, 1024), nm, fm)
	ideal.Access(0, 0, false)
	nm2, fm2 := devices()
	dfc := New(DFC(1<<20, 1024), nm2, fm2)
	dfc.Access(0, 0, false)
	if nm2.Traffic[memtypes.Metadata].Sum() == 0 {
		t.Fatal("DFC miss charged no metadata traffic")
	}
	if nm.Traffic[memtypes.Metadata].Sum() != 0 {
		t.Fatal("IDEAL charged metadata traffic")
	}
}

func TestDFCSlowerThanIdeal(t *testing.T) {
	nm, fm := devices()
	ideal := New(Ideal(1<<20, 1024), nm, fm)
	idealDone := ideal.Access(0, 0, false)
	nm2, fm2 := devices()
	dfc := New(DFC(1<<20, 1024), nm2, fm2)
	dfcDone := dfc.Access(0, 0, false)
	if dfcDone <= idealDone {
		t.Fatalf("DFC miss (%d) not slower than IDEAL (%d)", dfcDone, idealDone)
	}
}

func TestTaglessGeometry(t *testing.T) {
	nm, fm := devices()
	c := New(Tagless(64<<20), nm, fm)
	if c.cfg.LineBytes != 4096 {
		t.Fatalf("tagless line %d, want 4096", c.cfg.LineBytes)
	}
	if c.Name() != "TAGLESS" {
		t.Fatalf("name %q", c.Name())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	nm, fm := devices()
	New(Config{Name: "X", NMBytes: 3 << 10, LineBytes: 64, Assoc: 16}, nm, fm)
}

func TestCapacityConservation(t *testing.T) {
	// Touching exactly the cache capacity sequentially must not evict.
	nm, fm := devices()
	cap := uint64(1 << 20)
	c := New(Ideal(cap, 256), nm, fm)
	var now memtypes.Tick
	for a := memtypes.Addr(0); a < memtypes.Addr(cap); a += 256 {
		now = c.Access(now, a, false)
	}
	if c.Stats().Evictions != 0 {
		t.Fatalf("evictions %d while working set fits", c.Stats().Evictions)
	}
	// One more distinct line must evict exactly one.
	c.Access(now, memtypes.Addr(cap), false)
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions %d after overflow, want 1", c.Stats().Evictions)
	}
}

// TestResetRestoresBuiltState: after traffic that fills, hits and
// evicts, Reset (with the devices reset) leaves exactly a fresh build's
// state, for set-associative and direct-mapped caches alike: every way
// reads as a fresh build's, and the struct differs only in the spare
// pages Reset keeps for the next run.
func TestResetRestoresBuiltState(t *testing.T) {
	for _, cfg := range []Config{DFC(1<<20, 256), Alloy(1 << 20), Tagless(1 << 20)} {
		build := func() *Cache {
			nm, fm := devices()
			return New(cfg, nm, fm)
		}
		c := build()
		rng := rand.New(rand.NewSource(1))
		var now memtypes.Tick
		for i := 0; i < 20000; i++ {
			now += memtypes.Tick(rng.Intn(40))
			c.Access(now, memtypes.Addr(rng.Int63n(8<<20))&^63, rng.Intn(4) == 0)
		}
		c.Finish(now)
		if c.stats.Evictions == 0 {
			t.Fatalf("%s: no evictions", cfg.Name)
		}
		c.Reset(0)
		c.nm.Reset()
		c.fm.Reset()
		if len(c.active) != 0 || len(c.spare) == 0 {
			t.Fatalf("%s: %d pages active, %d spare after Reset", cfg.Name, len(c.active), len(c.spare))
		}
		fresh := build()
		for set := 0; set < c.sets; set++ {
			for way := 0; way < c.assoc; way++ {
				if got, want := readWay(c, set, way), readWay(fresh, set, way); got != want {
					t.Fatalf("%s: set %d way %d reads %+v after Reset, want %+v", cfg.Name, set, way, got, want)
				}
			}
		}
		got, want := *c, *fresh
		got.spare, want.spare = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reset state differs from a fresh build", cfg.Name)
		}
	}
}

// wayState is one way's entry words; an unallocated page reads zero.
type wayState struct{ tag, used, lru uint64 }

// readWay reads a way through the page index without allocating.
func readWay(c *Cache, set, way int) wayState {
	p := c.pages[set>>c.pageShift]
	if p == nil {
		return wayState{}
	}
	i := set&c.pageSetMask*c.assoc + way
	return wayState{p.tags[i], p.used[i], p.lrus[i]}
}
