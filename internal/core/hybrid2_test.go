package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// smallConfig returns a deliberately tiny Hybrid2 so tests exercise
// evictions, migrations and NM allocation quickly: 1 MB NM, 8 MB FM,
// 64 KB cache (32 sectors, 2 sets of 16).
func smallConfig() Config {
	cfg := Default(1<<20, 8<<20, 64<<10, 7)
	return cfg
}

func newSmall(t *testing.T, mode Mode) *Hybrid2 {
	t.Helper()
	cfg := smallConfig()
	cfg.Mode = mode
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestGeometry(t *testing.T) {
	h := newSmall(t, Normal)
	if h.linesPerSector != 8 {
		t.Fatalf("lines per sector %d, want 8 (2048/256)", h.linesPerSector)
	}
	if h.sets != 2 {
		t.Fatalf("sets %d, want 2", h.sets)
	}
	if got := h.Sectors(); got == 0 || got != h.cfg.Sectors() {
		t.Fatalf("%d logical sectors built, Config.Sectors says %d", got, h.cfg.Sectors())
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants violated at construction")
	}
}

func TestBadConfigPanics(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.LineBytes = 192 },               // not dividing sector
		func(c *Config) { c.CacheBytes = 0 },                // no cache
		func(c *Config) { c.CacheBytes = c.NMBytes * 2 },    // cache > NM
		func(c *Config) { c.LineBytes = 16 },                // >64 lines/sector
		func(c *Config) { c.FreeSectors = c.Sectors() + 1 }, // more free than flat
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			cfg := smallConfig()
			mutate(&cfg)
			New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
		}()
	}
}

func TestXTAHitServesFromNM(t *testing.T) {
	h := newSmall(t, Normal)
	// Find a logical sector initially in FM so the first access is 2b.
	var addr memtypes.Addr
	for l := uint32(0); l < h.Sectors(); l++ {
		if !h.lookup(l).nm() {
			addr = memtypes.Addr(l) * memtypes.Addr(h.cfg.SectorBytes)
			break
		}
	}
	h.Access(0, addr, false) // 2b: miss, fetch line from FM
	s := h.Stats()
	if s.ServedFM != 1 {
		t.Fatalf("first access served from %+v, want FM", s)
	}
	h.Access(1000, addr, false) // 1a: line hit in NM
	if s.ServedNM != 1 {
		t.Fatalf("second access not served from NM: %+v", s)
	}
}

func TestSectorInNMAdoptedWithoutTraffic(t *testing.T) {
	h := newSmall(t, Normal)
	var addr memtypes.Addr
	for l := uint32(0); l < h.Sectors(); l++ {
		if h.lookup(l).nm() {
			addr = memtypes.Addr(l) * memtypes.Addr(h.cfg.SectorBytes)
			break
		}
	}
	before := h.fm.Traffic.Total().Sum()
	h.Access(0, addr, false) // 2a: adopt NM-resident sector
	if h.Stats().ServedNM != 1 {
		t.Fatal("NM-resident sector not served from NM")
	}
	if h.fm.Traffic.Total().Sum() != before {
		t.Fatal("2a access generated FM traffic")
	}
	// All lines must now be valid: another line of the sector hits.
	h.Access(100, addr+1024, false)
	if h.Stats().ServedNM != 2 {
		t.Fatal("other line of adopted sector missed")
	}
}

func TestLineMissFetchesOnlyOneLine(t *testing.T) {
	h := newSmall(t, Normal)
	var addr memtypes.Addr
	for l := uint32(0); l < h.Sectors(); l++ {
		if !h.lookup(l).nm() {
			addr = memtypes.Addr(l) * memtypes.Addr(h.cfg.SectorBytes)
			break
		}
	}
	h.Access(0, addr, false)
	fmAfterFirst := h.fm.Traffic.Total().Read
	if fmAfterFirst != uint64(h.cfg.LineBytes) {
		t.Fatalf("2b fetched %d bytes, want one line (%d)", fmAfterFirst, h.cfg.LineBytes)
	}
	h.Access(1000, addr+memtypes.Addr(h.cfg.LineBytes), false) // 1b: next line
	if got := h.fm.Traffic.Total().Read - fmAfterFirst; got != uint64(h.cfg.LineBytes) {
		t.Fatalf("1b fetched %d bytes, want one line", got)
	}
}

func TestNetCostFormula(t *testing.T) {
	// Netcost = 2*Nall - Nvalid - Ndirty + 1 (§3.7.2). Bounds: 1 when all
	// valid+dirty, 2*Nall when a single clean line.
	nAll := 8
	cases := []struct {
		valid, dirty int
		want         int64
	}{
		{8, 8, 1},
		{1, 0, 16},
		{4, 2, 11},
		{8, 0, 9},
	}
	for _, c := range cases {
		got := int64(2*nAll - c.valid - c.dirty + 1)
		if got != c.want {
			t.Fatalf("netcost(valid=%d,dirty=%d) = %d, want %d", c.valid, c.dirty, got, c.want)
		}
	}
}

func TestMigrateAllMigratesOnEviction(t *testing.T) {
	h := newSmall(t, MigrateAll)
	// Touch enough distinct FM sectors mapping to set 0 to overflow it.
	touched := 0
	for l := uint32(0); l < h.Sectors() && touched < h.cfg.Assoc+4; l++ {
		if !h.lookup(l).nm() || h.slotState[h.lookup(l).idx()] != slotFlat {
			if !h.lookup(l).nm() && int(l)%h.sets == 0 {
				h.Access(memtypes.Tick(touched)*1000, memtypes.Addr(l)*memtypes.Addr(h.cfg.SectorBytes), false)
				touched++
			}
		}
	}
	if h.Stats().Migrations == 0 {
		t.Fatal("MigrateAll produced no migrations")
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants violated after migrations")
	}
}

func TestMigrateNoneNeverMigrates(t *testing.T) {
	h := newSmall(t, MigrateNone)
	var now memtypes.Tick
	rng := rand.New(rand.NewSource(1))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	for i := 0; i < 20000; i++ {
		addr := memtypes.Addr(rng.Uint64() % space)
		now += 50
		h.Access(now, addr, rng.Intn(3) == 0)
	}
	if h.Stats().Migrations != 0 {
		t.Fatalf("MigrateNone migrated %d sectors", h.Stats().Migrations)
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants violated")
	}
}

func TestCacheOnlyHasNoMetaTraffic(t *testing.T) {
	h := newSmall(t, CacheOnly)
	var now memtypes.Tick
	rng := rand.New(rand.NewSource(2))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	for i := 0; i < 20000; i++ {
		addr := memtypes.Addr(rng.Uint64() % space)
		now += 50
		h.Access(now, addr, rng.Intn(3) == 0)
	}
	if h.nm.Traffic[memtypes.Metadata].Sum() != 0 {
		t.Fatalf("CacheOnly charged %d metadata bytes", h.nm.Traffic[memtypes.Metadata].Sum())
	}
	if h.Stats().Migrations != 0 {
		t.Fatal("CacheOnly migrated")
	}
}

func TestNoRemapChargesNoMetaTraffic(t *testing.T) {
	h := newSmall(t, NoRemapOverhead)
	var now memtypes.Tick
	rng := rand.New(rand.NewSource(3))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	for i := 0; i < 20000; i++ {
		addr := memtypes.Addr(rng.Uint64() % space)
		now += 50
		h.Access(now, addr, rng.Intn(3) == 0)
	}
	if h.nm.Traffic[memtypes.Metadata].Sum() != 0 {
		t.Fatalf("NoRemapOverhead charged %d metadata bytes", h.nm.Traffic[memtypes.Metadata].Sum())
	}
}

func TestNormalModeChargesMetaTraffic(t *testing.T) {
	h := newSmall(t, Normal)
	var now memtypes.Tick
	rng := rand.New(rand.NewSource(4))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	for i := 0; i < 20000; i++ {
		addr := memtypes.Addr(rng.Uint64() % space)
		now += 50
		h.Access(now, addr, rng.Intn(3) == 0)
	}
	if h.nm.Traffic[memtypes.Metadata].Sum() == 0 {
		t.Fatal("normal mode charged no metadata traffic")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	h := newSmall(t, MigrateNone)
	// Dirty one line of many distinct set-0 FM sectors to force evictions
	// with write-backs.
	count := 0
	var now memtypes.Tick
	for l := uint32(0); l < h.Sectors() && count < 3*h.cfg.Assoc; l++ {
		if !h.lookup(l).nm() && int(l)%h.sets == 0 {
			now += 2000
			h.Access(now, memtypes.Addr(l)*memtypes.Addr(h.cfg.SectorBytes), true)
			count++
		}
	}
	if h.fm.Traffic[memtypes.Writeback].Write == 0 {
		t.Fatal("dirty evictions produced no FM write-backs")
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants violated")
	}
}

func TestBudgetGatesMigration(t *testing.T) {
	// With a budget reset every cycle (effectively zero budget), the
	// normal mode must not migrate.
	cfg := smallConfig()
	cfg.FMBudgetReset = 1
	h := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
	var now memtypes.Tick
	rng := rand.New(rand.NewSource(5))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	for i := 0; i < 30000; i++ {
		addr := memtypes.Addr(rng.Uint64() % space)
		now += 500 // ensure a reset before every access
		h.Access(now, addr, false)
	}
	if h.Stats().Migrations != 0 {
		t.Fatalf("migrations %d despite zero budget", h.Stats().Migrations)
	}
}

func TestAccessCounterSaturates(t *testing.T) {
	h := newSmall(t, Normal)
	var addr memtypes.Addr
	var logical uint32
	for l := uint32(0); l < h.Sectors(); l++ {
		if !h.lookup(l).nm() {
			logical = l
			addr = memtypes.Addr(l) * memtypes.Addr(h.cfg.SectorBytes)
			break
		}
	}
	for i := 0; i < 2000; i++ {
		h.Access(memtypes.Tick(i)*10, addr, false)
	}
	set := int(logical % uint32(h.sets))
	way, ok := h.xta.Lookup(set, uint64(logical)+1)
	if !ok {
		t.Fatal("entry evicted unexpectedly")
	}
	e := &h.entries[set*h.cfg.Assoc+way]
	if e.ctr != h.ctrMax {
		t.Fatalf("counter %d after 2000 accesses, want saturation at %d", e.ctr, h.ctrMax)
	}
}

func TestInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.Seed = uint64(seed) + 1
		h := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
		space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
		var now memtypes.Tick
		for i := 0; i < 5000; i++ {
			addr := memtypes.Addr(rng.Uint64() % space)
			now += memtypes.Tick(rng.Intn(200))
			done := h.Access(now, addr, rng.Intn(4) == 0)
			if done < now {
				return false
			}
		}
		return h.CheckInvariants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAllModes(t *testing.T) {
	for _, mode := range []Mode{Normal, CacheOnly, MigrateAll, MigrateNone, NoRemapOverhead} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newSmall(t, mode)
			rng := rand.New(rand.NewSource(11))
			space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
			var now memtypes.Tick
			for i := 0; i < 30000; i++ {
				addr := memtypes.Addr(rng.Uint64() % space)
				now += 30
				h.Access(now, addr, rng.Intn(4) == 0)
			}
			if !h.CheckInvariants() {
				t.Fatalf("invariants violated in mode %v", mode)
			}
		})
	}
}

func TestServedSplitsSumToRequests(t *testing.T) {
	h := newSmall(t, Normal)
	rng := rand.New(rand.NewSource(13))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	var now memtypes.Tick
	for i := 0; i < 10000; i++ {
		now += 40
		h.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	s := h.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served NM %d + FM %d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
	}
}

func TestHotDataEventuallyMigrates(t *testing.T) {
	// A small hot set hammered continuously must end up migrated to NM
	// under the normal policy (the cache stages it, the counters rank it,
	// demand misses fund the budget).
	h := newSmall(t, Normal)
	var hot []memtypes.Addr
	for l := uint32(0); l < h.Sectors() && len(hot) < 64; l++ {
		if !h.lookup(l).nm() {
			hot = append(hot, memtypes.Addr(l)*memtypes.Addr(h.cfg.SectorBytes))
		}
	}
	rng := rand.New(rand.NewSource(17))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	var now memtypes.Tick
	for i := 0; i < 120000; i++ {
		now += 25
		if rng.Intn(10) < 8 { // 80% hot
			a := hot[rng.Intn(len(hot))] + memtypes.Addr(rng.Intn(32)*64)
			h.Access(now, a, false)
		} else {
			h.Access(now, memtypes.Addr(rng.Uint64()%space), false)
		}
	}
	if h.Stats().Migrations == 0 {
		t.Fatal("hot working set never migrated to NM")
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants violated")
	}
}

func TestPathStatsSumToRequests(t *testing.T) {
	h := newSmall(t, Normal)
	rng := rand.New(rand.NewSource(31))
	space := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
	var now memtypes.Tick
	for i := 0; i < 10000; i++ {
		now += 40
		h.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	p := h.PathStats()
	if p.Hit1a+p.Hit1b+p.Miss2a+p.Miss2b != h.Stats().Requests {
		t.Fatalf("path counters %+v do not sum to %d requests", p, h.Stats().Requests)
	}
	if p.Frac2b() <= 0 || p.Frac2b() >= 1 {
		t.Fatalf("2b fraction %f out of range", p.Frac2b())
	}
}

func TestPathStatsHotReuseMostly1a(t *testing.T) {
	// A small, hot, repeatedly accessed set must be dominated by 1a hits.
	h := newSmall(t, Normal)
	var addr memtypes.Addr
	for l := uint32(0); l < h.Sectors(); l++ {
		if !h.lookup(l).nm() {
			addr = memtypes.Addr(l) * memtypes.Addr(h.cfg.SectorBytes)
			break
		}
	}
	for i := 0; i < 1000; i++ {
		h.Access(memtypes.Tick(i)*20, addr, false)
	}
	p := h.PathStats()
	if p.Hit1a < 990 {
		t.Fatalf("only %d of 1000 hot accesses took 1a", p.Hit1a)
	}
}

// TestResetRestoresBuiltState drives every mode (with and without a
// free-hinted suffix of 1024 sectors) through evictions, migrations and
// NM allocations, then requires Reset, to the build's own seed and then,
// after more traffic, to another, to leave exactly the state of a fresh
// build at that seed: every sector's location, every NM slot's owner
// and state, and every other field, devices included.
func TestResetRestoresBuiltState(t *testing.T) {
	for _, mode := range []Mode{Normal, CacheOnly, MigrateAll, MigrateNone, NoRemapOverhead} {
		for _, free := range []bool{false, true} {
			build := func(seed uint64) *Hybrid2 {
				cfg := smallConfig()
				cfg.Mode, cfg.Seed = mode, seed
				if free {
					cfg.FreeSectors = 1024
				}
				return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
			}
			h := build(smallConfig().Seed)
			for _, seed := range []uint64{smallConfig().Seed, 9} {
				now := drive(h, int64(mode)+int64(seed))
				h.Finish(now)
				if h.stats.Migrations+h.stats.Evictions == 0 {
					t.Fatalf("%v free=%v seed %d: traffic moved nothing to restore", mode, free, seed)
				}
				h.Reset(seed)
				h.nm.Reset()
				h.fm.Reset()
				want := build(seed)
				for l := range want.Sectors() {
					if got, w := h.lookup(l), want.lookup(l); got != w {
						t.Fatalf("%v free=%v seed %d: sector %d at %#x after Reset, %#x when built", mode, free, seed, l, got, w)
					}
				}
				for s := range want.poolSectors {
					if h.invRemap[s] != want.invRemap[s] || h.slotState[s] != want.slotState[s] {
						t.Fatalf("%v free=%v seed %d: NM slot %d (owner %d, state %d) after Reset, (%d, %d) when built",
							mode, free, seed, s, h.invRemap[s], h.slotState[s], want.invRemap[s], want.slotState[s])
					}
				}
				got := *h
				got.remap, got.invRemap, got.slotState = want.remap, want.invRemap, want.slotState
				if !reflect.DeepEqual(got, *want) {
					t.Errorf("%v free=%v seed %d: reset state differs from a fresh build", mode, free, seed)
				}
			}
		}
	}
}

// drive sends a seeded mix of hot-set and wide accesses through h and
// returns the time of the last one.
func drive(h *Hybrid2, seed int64) memtypes.Tick {
	return replay(h, traffic(h.Sectors(), seed))
}

// request is one access of a pre-generated traffic mix.
type request struct {
	now   memtypes.Tick
	addr  memtypes.Addr
	write bool
}

// traffic returns a seeded mix of hot-set and wide accesses over a flat
// space of the given sectors.
func traffic(sectors uint32, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, 20000)
	var now memtypes.Tick
	for i := range reqs {
		now += memtypes.Tick(rng.Intn(40))
		addr := memtypes.Addr(rng.Intn(64)) << 11 // a hot set of sectors
		if i%3 == 0 {
			addr = memtypes.Addr(rng.Int63n(int64(sectors) << 11))
		}
		reqs[i] = request{now, addr &^ 63, rng.Intn(4) == 0}
	}
	return reqs
}

// replay sends reqs through h and returns the time of the last one.
func replay(h *Hybrid2, reqs []request) memtypes.Tick {
	for _, r := range reqs {
		h.Access(r.now, r.addr, r.write)
	}
	return reqs[len(reqs)-1].now
}

// TestResetReusesPages: a reset machine that runs the same traffic
// again writes the same remap entries into the table memory the first
// run left: the second run and its Reset allocate nothing.
func TestResetReusesPages(t *testing.T) {
	h := newSmall(t, Normal)
	reqs := traffic(h.Sectors(), 1)
	if allocs := testing.AllocsPerRun(1, func() {
		h.Finish(replay(h, reqs))
		if h.stats.Migrations == 0 {
			t.Fatal("traffic migrated nothing")
		}
		h.Reset(h.cfg.Seed)
		h.nm.Reset()
		h.fm.Reset()
	}); allocs != 0 {
		t.Errorf("second identical run allocated %v times", allocs)
	}
}
