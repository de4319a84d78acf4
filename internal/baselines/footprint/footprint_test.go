package footprint

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall() *Cache {
	cfg := Default(1 << 20)
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestColdPageFetchesOnlyDemandedLine(t *testing.T) {
	c := newSmall()
	c.Access(0, 0x10000, false)
	if got := c.fm.Traffic.Total().Read; got != 64 {
		t.Fatalf("cold page fetched %d bytes, want 64", got)
	}
}

func TestFootprintSeedsNextResidency(t *testing.T) {
	c := newSmall()
	// First residency: touch lines 0..3 of page 0.
	var now memtypes.Tick
	for i := 0; i < 4; i++ {
		now += 1000
		c.Access(now, memtypes.Addr(i*64), false)
	}
	// Evict page 0 by filling its set (same set: stride sets*2048).
	stride := memtypes.Addr(c.sets * 2048)
	for i := 1; i <= c.cfg.Assoc; i++ {
		now += 1000
		c.Access(now, memtypes.Addr(i)*stride, false)
	}
	if len(c.history) == 0 {
		t.Fatal("no footprint recorded on eviction")
	}
	// Second residency: the recorded 4-line footprint is prefetched, so
	// line 2 (not the demanded line 0) must hit.
	before := c.Stats().ServedNM
	now += 1000
	c.Access(now, 0, false) // allocation with footprint {0..3}
	now += 1000
	c.Access(now, 2*64, false)
	if c.Stats().ServedNM != before+1 {
		t.Fatal("footprint-predicted line did not hit")
	}
}

func TestUnpredictedLineDemandFetched(t *testing.T) {
	c := newSmall()
	c.Access(0, 0, false)        // page allocated with line 0 only
	c.Access(5000, 10*64, false) // line 10: present page, absent line
	s := c.Stats()
	if got := c.fm.Traffic[memtypes.Demand].Read; got != 128 || c.fm.Traffic.Total().Read != got {
		t.Fatalf("FM reads %+v, want two single-line demand fetches (128)", c.fm.Traffic)
	}
	if s.ServedNM != 0 {
		t.Fatal("absent line counted as NM hit")
	}
	c.Access(10000, 10*64, false)
	if c.Stats().ServedNM != 1 {
		t.Fatal("demand-fetched line did not hit afterwards")
	}
}

func TestDirtyLinesWrittenBackOnEviction(t *testing.T) {
	c := newSmall()
	c.Access(0, 0, true) // dirty line 0 of page 0
	stride := memtypes.Addr(c.sets * 2048)
	var now memtypes.Tick
	for i := 1; i <= c.cfg.Assoc; i++ {
		now += 1000
		c.Access(now, memtypes.Addr(i)*stride, false)
	}
	if got := c.fm.Traffic[memtypes.Writeback].Write; got != 64 {
		t.Fatalf("write-back bytes %d, want 64 (dirty lines only)", got)
	}
}

func TestHistoryBounded(t *testing.T) {
	cfg := Default(1 << 20)
	cfg.HistoryMax = 64
	c := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
	rng := rand.New(rand.NewSource(5))
	var now memtypes.Tick
	for i := 0; i < 50000; i++ {
		now += 50
		c.Access(now, memtypes.Addr(rng.Intn(1<<26))&^63, false)
	}
	if len(c.history) > cfg.HistoryMax {
		t.Fatalf("history grew to %d entries, cap %d", len(c.history), cfg.HistoryMax)
	}
}

func TestWastedFetchLowerThanIdealLargeLine(t *testing.T) {
	// The whole point of the design: footprint fills waste far less than
	// eagerly filling whole pages. Single-line-per-page traffic must
	// yield ~zero waste.
	c := newSmall()
	var now memtypes.Tick
	for i := 0; i < 3000; i++ {
		now += 100
		c.Access(now, memtypes.Addr(i*2048), false)
	}
	c.Finish(now)
	if w := c.Stats().WastedFrac(); w > 0.05 {
		t.Fatalf("footprint cache wasted %.2f of fetched data", w)
	}
}

func TestServedSumsToRequests(t *testing.T) {
	c := newSmall()
	rng := rand.New(rand.NewSource(9))
	var now memtypes.Tick
	for i := 0; i < 20000; i++ {
		now += 60
		c.Access(now, memtypes.Addr(rng.Intn(1<<24))&^63, rng.Intn(4) == 0)
	}
	s := c.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served %d+%d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
	}
}

// TestResetRestoresBuiltState: after traffic that allocates pages and
// evicts them into the footprint history, Reset (with the devices reset)
// leaves exactly a fresh build's state.
func TestResetRestoresBuiltState(t *testing.T) {
	c := newSmall()
	rng := rand.New(rand.NewSource(4))
	var now memtypes.Tick
	for i := 0; i < 100000; i++ {
		now += memtypes.Tick(rng.Intn(40))
		addr := memtypes.Addr(rng.Intn(1024)) << 11 // a hot set twice the cache
		if i%4 == 0 {
			addr = memtypes.Addr(rng.Int63n(8 << 20))
		}
		c.Access(now, addr+memtypes.Addr(rng.Intn(32))*64, rng.Intn(4) == 0)
	}
	c.Finish(now)
	if c.stats.Evictions == 0 || len(c.history) == 0 {
		t.Fatalf("traffic evicted %d pages, recorded %d footprints", c.stats.Evictions, len(c.history))
	}
	c.Reset(0)
	c.nm.Reset()
	c.fm.Reset()
	if !reflect.DeepEqual(*c, *newSmall()) {
		t.Error("reset state differs from a fresh build")
	}
}
