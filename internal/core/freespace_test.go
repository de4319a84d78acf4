package core

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newFreeAware(t *testing.T) *Hybrid2 {
	t.Helper()
	cfg := smallConfig()
	cfg.FreeSpaceAware = true
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestMarkFreeTracksSectors(t *testing.T) {
	h := newFreeAware(t)
	h.MarkFree(0, 8*2048)
	if got := h.UnusedSectors(); got != 8 {
		t.Fatalf("unused sectors %d, want 8", got)
	}
	h.MarkUsed(0, 4*2048)
	if got := h.UnusedSectors(); got != 4 {
		t.Fatalf("unused sectors after re-alloc %d, want 4", got)
	}
}

func TestMarkFreePartialSectorsIgnored(t *testing.T) {
	// Only fully covered sectors may be dropped.
	h := newFreeAware(t)
	h.MarkFree(100, 2048) // covers no whole sector
	if got := h.UnusedSectors(); got != 0 {
		t.Fatalf("partial free marked %d sectors", got)
	}
}

func TestHintsIgnoredWhenDisabled(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
	h.MarkFree(0, 1<<20)
	if h.UnusedSectors() != 0 || h.SavedCopies() != 0 {
		t.Fatal("disabled extension recorded hints")
	}
}

func TestFreeSectorsSkipAllocationCopies(t *testing.T) {
	run := func(aware bool) (fmWrites uint64, saved uint64) {
		cfg := smallConfig()
		cfg.FreeSpaceAware = aware
		cfg.Mode = MigrateAll // force allocation pressure
		h := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
		if aware {
			// The whole address space is hinted free: every displacement
			// can skip its copy.
			h.MarkFree(0, uint64(h.Sectors())*2048)
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
		return h.fm.Traffic.Total().Write, h.SavedCopies()
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
	h := newFreeAware(t)
	h.MarkFree(0, uint64(h.Sectors())*2048)
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
	if h.SavedCopies() == 0 {
		t.Fatal("no copies saved")
	}
}

func TestFreeAwareInvariantsUnderChurn(t *testing.T) {
	h := newFreeAware(t)
	rng := rand.New(rand.NewSource(21))
	space := uint64(h.Sectors()) * 2048
	var now memtypes.Tick
	for i := 0; i < 30000; i++ {
		now += 30
		addr := memtypes.Addr(rng.Uint64() % space)
		switch rng.Intn(20) {
		case 0:
			h.MarkFree(addr&^2047, 4*2048)
		case 1:
			h.MarkUsed(addr&^2047, 4*2048)
		default:
			h.Access(now, addr, rng.Intn(4) == 0)
		}
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants violated under hint churn")
	}
}
