package core

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// newAllFree builds Hybrid2 with every logical sector hinted free.
func newAllFree(mode Mode) *Hybrid2 {
	cfg := smallConfig()
	cfg.Mode = mode
	cfg.FreeSectors = cfg.Sectors()
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestFreeSectorsSkipAllocationCopies(t *testing.T) {
	run := func(aware bool) (fmWrites uint64, saved uint64) {
		// MigrateAll forces allocation pressure. With the whole address
		// space hinted free, every displacement can skip its copy.
		h := newSmall(t, MigrateAll)
		if aware {
			h = newAllFree(MigrateAll)
		}
		rng := rand.New(rand.NewSource(3))
		space := uint64(h.Sectors()) * 2048
		var now memtypes.Tick
		for i := 0; i < 30000; i++ {
			now += 40
			h.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
		}
		if !h.CheckInvariants() {
			t.Fatal("invariants violated")
		}
		return h.fm.Traffic.Total().Write, h.savedCopies
	}
	base, _ := run(false)
	aware, saved := run(true)
	if saved == 0 {
		t.Fatal("free-space extension saved no copies")
	}
	if aware >= base {
		t.Fatalf("FM write traffic with hints (%d) not below base (%d)", aware, base)
	}
}

func TestFreeSectorEvictionSkipsWriteback(t *testing.T) {
	h := newAllFree(Normal)
	// Dirty many set-0 FM sectors to force dirty evictions.
	count := 0
	var now memtypes.Tick
	for l := uint32(0); l < h.Sectors() && count < 3*h.cfg.Assoc; l++ {
		if !h.lookup(l).nm() && int(l)%h.sets == 0 {
			now += 2000
			h.Access(now, memtypes.Addr(l)*2048, true)
			count++
		}
	}
	if h.fm.Traffic.Total().Write != 0 {
		t.Fatalf("evictions of hinted-free sectors wrote %d bytes back", h.fm.Traffic.Total().Write)
	}
	if h.savedCopies == 0 {
		t.Fatal("no copies saved")
	}
}
