package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hybridmem/internal/memtypes"
)

// TestNewRejectsNonPow2Geometry: the address mapping is shifts and
// masks, so New refuses any geometry field that is not a positive power
// of two instead of mapping addresses wrongly.
func TestNewRejectsNonPow2Geometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"channels", func(c *Config) { c.Channels = 3 }},
		{"banks", func(c *Config) { c.BanksPerChannel = 6 }},
		{"row", func(c *Config) { c.RowBytes = 3000 }},
		{"interleave", func(c *Config) { c.InterleaveBytes = 192 }},
		{"zero channels", func(c *Config) { c.Channels = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := HBM2Config()
			tc.edit(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatalf("New accepted %+v", cfg)
				}
			}()
			New(cfg)
		})
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	d := New(HBM2Config())
	first := d.Access(0, 0, 64, false)       // row miss: activate
	second := d.Access(first, 64, 64, false) // same row: hit
	lat1 := first
	lat2 := second - first
	if lat2 >= lat1 {
		t.Fatalf("row hit latency %d not lower than row miss %d", lat2, lat1)
	}
}

func TestHBMFasterThanDDR4(t *testing.T) {
	nm := New(HBM2Config())
	fm := New(DDR4Config())
	nmDone := nm.Access(0, 4096, 64, false)
	fmDone := fm.Access(0, 4096, 64, false)
	if nmDone >= fmDone {
		t.Fatalf("HBM access (%d) should be faster than DDR4 (%d)", nmDone, fmDone)
	}
}

func TestChannelContentionSerializes(t *testing.T) {
	d := New(DDR4Config())
	// Two back-to-back accesses to the same channel at the same instant:
	// the second must start after the first releases the bus.
	a := d.Access(0, 0, 2048, false)
	b := d.Access(0, 0, 2048, false)
	if b <= a {
		t.Fatalf("contended access finished at %d, not after first at %d", b, a)
	}
}

func TestDifferentChannelsOverlap(t *testing.T) {
	d := New(HBM2Config())
	cfg := d.Config()
	a := d.Access(0, 0, 256, false)
	// Next channel by interleave granularity.
	b := d.Access(0, memtypes.Addr(cfg.InterleaveBytes), 256, false)
	if b != a {
		t.Fatalf("independent channels should give equal latency: %d vs %d", a, b)
	}
}

func TestTrafficCounters(t *testing.T) {
	d := New(HBM2Config())
	d.Access(0, 0, 64, false)
	d.Access(0, 0, 128, true)
	if got := d.Traffic[memtypes.Demand]; got != (memtypes.Bytes{Read: 64, Write: 128}) {
		t.Fatalf("got demand %+v, want read 64 write 128", got)
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("got reads=%d writes=%d, want 1/1", d.Reads, d.Writes)
	}
}

func TestTrafficClasses(t *testing.T) {
	// Every access method counts its bytes under its own class only, and
	// the classes sum to the device total.
	d := New(HBM2Config())
	d.Access(0, 0, 64, true)
	d.AccessAs(memtypes.Metadata, 0, 4096, 72, false)
	d.AccessBG(memtypes.Fill, 0, 8192, 256, true)
	d.AccessBG(memtypes.Writeback, 0, 8192, 128, false)
	d.AccessBG(memtypes.Migration, 0, 8192, 2048, true)
	d.AccessCriticalFirst(0, 0, 512, 64)
	want := memtypes.Traffic{
		memtypes.Demand:    {Read: 512, Write: 64},
		memtypes.Fill:      {Write: 256},
		memtypes.Writeback: {Read: 128},
		memtypes.Migration: {Write: 2048},
		memtypes.Metadata:  {Read: 72},
	}
	if d.Traffic != want {
		t.Fatalf("traffic %+v, want %+v", d.Traffic, want)
	}
	if got := d.Traffic.Total(); got != (memtypes.Bytes{Read: 712, Write: 2368}) {
		t.Fatalf("total %+v", got)
	}
}

func TestWithTraffic(t *testing.T) {
	nm, fm := New(HBM2Config()), New(DDR4Config())
	nm.Traffic = memtypes.Traffic{memtypes.Demand: {Read: 640, Write: 64}, memtypes.Fill: {Write: 256}, memtypes.Metadata: {Read: 64, Write: 128}}
	fm.Traffic = memtypes.Traffic{memtypes.Demand: {Read: 64}, memtypes.Fill: {Read: 256}, memtypes.Writeback: {Write: 512}}
	s := memtypes.MemStats{Requests: 3}
	if WithTraffic(&s, nm, fm) != &s {
		t.Fatal("WithTraffic returned another MemStats")
	}
	if s.NMReadBytes != 704 || s.NMWriteBytes != 448 || s.FMReadBytes != 320 || s.FMWriteBytes != 512 {
		t.Fatalf("totals %+v", s)
	}
	if s.MetaNMBytes != 192 {
		t.Fatalf("MetaNMBytes %d, want the NM metadata class (192)", s.MetaNMBytes)
	}
	if s.ClassBytes(memtypes.Fill) != 512 || s.ClassBytes(memtypes.Migration) != 0 {
		t.Fatalf("fill %d, migration %d", s.ClassBytes(memtypes.Fill), s.ClassBytes(memtypes.Migration))
	}
	if s.Requests != 3 || s.NM != nm.Traffic || s.FM != fm.Traffic {
		t.Fatalf("WithTraffic touched other fields or lost the classes: %+v", s)
	}
	// A design without near memory reports none, even over stale counts.
	WithTraffic(&s, nil, fm)
	if s.NMTraffic() != 0 || s.MetaNMBytes != 0 || s.NM != (memtypes.Traffic{}) || s.FMTraffic() != 832 {
		t.Fatalf("without NM: %+v", s)
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := New(HBM2Config())
	d.Access(0, 0, 64, false) // one activation + 64B read
	want := 64*8*6.4/1000 + 15.0
	got := d.DynamicEnergyNanoJ()
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("energy %f, want %f", got, want)
	}
}

func TestZeroByteAccessIsFree(t *testing.T) {
	d := New(HBM2Config())
	if done := d.Access(100, 0, 0, false); done != 100 {
		t.Fatalf("zero-byte access advanced time to %d", done)
	}
	if d.Traffic.Total().Sum() != 0 {
		t.Fatal("zero-byte access counted traffic")
	}
}

func TestSustainedBandwidthBounded(t *testing.T) {
	// Hammer one device with sequential traffic and check the achieved
	// bandwidth never exceeds the configured peak.
	d := New(HBM2Config())
	var now memtypes.Tick
	const n = 4000
	for i := 0; i < n; i++ {
		now = d.Access(now, memtypes.Addr(i*256), 256, false)
	}
	bytes := float64(n * 256)
	bw := bytes / float64(now)
	if peak := d.cfg.BytesPerCycle * float64(d.cfg.Channels); bw > peak {
		t.Fatalf("achieved bandwidth %f exceeds peak %f", bw, peak)
	}
}

func TestCompletionMonotoneProperty(t *testing.T) {
	// Property: for monotonically non-decreasing issue times, completion
	// is strictly after issue and traffic accumulates exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(DDR4Config())
		var now memtypes.Tick
		var wantRead, wantWrite uint64
		for i := 0; i < 200; i++ {
			addr := memtypes.Addr(rng.Intn(1 << 30))
			sz := 64 << rng.Intn(4)
			wr := rng.Intn(2) == 0
			done := d.Access(now, addr, sz, wr)
			if done <= now {
				return false
			}
			if wr {
				wantWrite += uint64(sz)
			} else {
				wantRead += uint64(sz)
			}
			now += memtypes.Tick(rng.Intn(50))
		}
		return d.Traffic.Total() == memtypes.Bytes{Read: wantRead, Write: wantWrite}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundDoesNotDelayDemand(t *testing.T) {
	d := New(DDR4Config())
	// A large background transfer at t=0...
	d.AccessBG(memtypes.Fill, 0, 0, 4096, false)
	// ...must not delay a demand access to the same channel.
	bgFree := d.channels[0].bgFreeAt
	done := d.Access(0, 0x2000, 64, false) // same channel, different bank
	if done > bgFree {
		t.Fatalf("demand access done at %d, after background at %d", done, bgFree)
	}
	plain := New(DDR4Config())
	ref := plain.Access(0, 0x2000, 64, false)
	if done != ref {
		t.Fatalf("demand latency changed by background traffic: %d vs %d", done, ref)
	}
}

func TestBackgroundQueuesBehindDemand(t *testing.T) {
	d := New(DDR4Config())
	demandDone := d.Access(0, 0, 2048, false)
	bgDone := d.AccessBG(memtypes.Writeback, 0, 0, 64, false)
	if bgDone <= demandDone-memtypes.Tick(2048/8) {
		t.Fatalf("background transfer (%d) jumped ahead of demand (%d)", bgDone, demandDone)
	}
}

func TestBackgroundCountsTrafficAndEnergy(t *testing.T) {
	d := New(HBM2Config())
	d.AccessBG(memtypes.Migration, 0, 0, 2048, true)
	if got := d.Traffic[memtypes.Migration].Write; got != 2048 {
		t.Fatalf("background write bytes %d, want 2048", got)
	}
	if d.DynamicEnergyNanoJ() <= 0 {
		t.Fatal("background transfer consumed no energy")
	}
}

func TestCriticalFirstOrdering(t *testing.T) {
	d := New(DDR4Config())
	crit, full := d.AccessCriticalFirst(0, 0, 2048, 64)
	if crit >= full {
		t.Fatalf("critical chunk (%d) not earlier than full burst (%d)", crit, full)
	}
	// The critical chunk must cost about one 64 B access, not the burst.
	ref := New(DDR4Config())
	single := ref.Access(0, 0, 64, false)
	if crit != single {
		t.Fatalf("critical latency %d, want single-access %d", crit, single)
	}
	if got := d.Traffic[memtypes.Demand].Read; got != 2048 {
		t.Fatalf("demand read bytes %d, want full line", got)
	}
}

func TestCriticalFirstDegenerate(t *testing.T) {
	d := New(DDR4Config())
	crit, full := d.AccessCriticalFirst(5, 0, 0, 64)
	if crit != 5 || full != 5 {
		t.Fatal("zero-byte critical-first advanced time")
	}
	crit, full = d.AccessCriticalFirst(0, 0, 64, 128) // critical > bytes
	if crit != full {
		t.Fatal("oversized critical chunk mishandled")
	}
}
