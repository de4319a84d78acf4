package silcfm

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall() *SILCFM {
	return New(Default(1<<20, 8<<20, 512),
		memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestReusedSegmentClaimsWay(t *testing.T) {
	s := newSmall()
	addr := memtypes.Addr(10 * 2048)
	var now memtypes.Tick
	// Revisit the segment (with other segments in between) until it
	// claims a way, then the sub-block must be NM-resident.
	for i := 0; i < s.cfg.ClaimEpisodes+1; i++ {
		now += 500
		s.Access(now, addr, false)
		now += 500
		s.Access(now, memtypes.Addr(5000+i)*2048, false)
	}
	now += 500
	s.Access(now, addr, false)
	if s.Stats().ServedNM == 0 {
		t.Fatal("reused segment never served from NM")
	}
	if s.Stats().Migrations == 0 {
		t.Fatal("no way claimed")
	}
}

func TestOnePassStreamNeverClaims(t *testing.T) {
	s := newSmall()
	var now memtypes.Tick
	for a := memtypes.Addr(0); a < 1<<20; a += 64 {
		now += 50
		s.Access(now, a, false)
	}
	if s.Stats().Migrations != 0 {
		t.Fatalf("streaming claimed %d ways", s.Stats().Migrations)
	}
}

func TestSubBlockInterleaving(t *testing.T) {
	s := newSmall()
	base := memtypes.Addr(10 * 2048)
	var now memtypes.Tick
	for i := 0; i < s.cfg.ClaimEpisodes+1; i++ {
		now += 500
		s.Access(now, base, false)
		now += 500
		s.Access(now, memtypes.Addr(5000+i)*2048, false)
	}
	// The claimed way holds only the demanded sub-block: another offset
	// demand-fetches 64 B into the same way (interleaving), then hits.
	fmBefore := s.fm.Traffic.Total().Read
	now += 500
	s.Access(now, base+512, false)
	if got := s.fm.Traffic.Total().Read - fmBefore; got != 64 {
		t.Fatalf("sub-block fill read %d bytes, want 64", got)
	}
	now += 500
	s.Access(now, base+512, false)
	servedBefore := s.Stats().ServedNM
	now += 500
	s.Access(now, base+512, false)
	if s.Stats().ServedNM != servedBefore+1 {
		t.Fatal("interleaved sub-block did not hit")
	}
}

func TestDirtyWritebackOnWayEviction(t *testing.T) {
	s := newSmall()
	// Claim a way with writes, then displace it with other claimants of
	// the same set (stride = sets*2048 keeps the set fixed).
	stride := memtypes.Addr(s.sets) * 2048
	claim := func(a memtypes.Addr, write bool) {
		var now memtypes.Tick
		for i := 0; i < s.cfg.ClaimEpisodes+1; i++ {
			now += 300
			s.Access(now, a, write)
			now += 300
			s.Access(now, a+memtypes.Addr(9999*2048), false)
		}
	}
	claim(0, true)
	for i := 1; i <= s.cfg.Assoc+1; i++ {
		claim(memtypes.Addr(i)*stride, false)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("no way evictions despite set pressure")
	}
	if s.fm.Traffic.Total().Write == 0 {
		t.Fatal("dirty sub-blocks never written back")
	}
	if !s.CheckInvariants() {
		t.Fatal("duplicate owners in a set")
	}
}

func TestInvariantsUnderTraffic(t *testing.T) {
	s := newSmall()
	rng := rand.New(rand.NewSource(11))
	var now memtypes.Tick
	for i := 0; i < 40000; i++ {
		now += 50
		s.Access(now, memtypes.Addr(rng.Intn(8<<20))&^63, rng.Intn(4) == 0)
	}
	if !s.CheckInvariants() {
		t.Fatal("invariants violated")
	}
	st := s.Stats()
	if st.ServedNM+st.ServedFM != st.Requests {
		t.Fatalf("served %d+%d != requests %d", st.ServedNM, st.ServedFM, st.Requests)
	}
}

// TestResetRestoresBuiltState: after traffic that claims ways and evicts
// dirty ones, Reset (with the devices reset) leaves exactly a fresh
// build's state.
func TestResetRestoresBuiltState(t *testing.T) {
	s := newSmall()
	rng := rand.New(rand.NewSource(4))
	var now memtypes.Tick
	for i := 0; i < 100000; i++ {
		now += memtypes.Tick(rng.Intn(40))
		addr := memtypes.Addr(rng.Intn(1024)) << 11 // a hot set twice the ways
		if i%4 == 0 {
			addr = memtypes.Addr(rng.Int63n(8 << 20))
		}
		s.Access(now, addr+memtypes.Addr(rng.Intn(32))*64, rng.Intn(4) == 0)
	}
	s.Finish(now)
	if s.stats.Migrations == 0 || s.stats.Evictions == 0 || len(s.episodes) == 0 {
		t.Fatalf("traffic claimed %d ways, evicted %d, counted %d segments", s.stats.Migrations, s.stats.Evictions, len(s.episodes))
	}
	s.Reset(9) // SILC-FM reads no seed: any seed restores the build
	s.nm.Reset()
	s.fm.Reset()
	if !reflect.DeepEqual(*s, *newSmall()) {
		t.Error("reset state differs from a fresh build")
	}
}
