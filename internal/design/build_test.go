package design_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
)

// buildSys is the system the DSE screens designs on: the default scale
// with the paper's 1:16 NM:FM ratio.
var buildSys = config.Scaled(config.DefaultScale, 1)

// TestBuildAllocatesLessThanItsSectors pins that a flat-space design
// reads its placement from the memoized permutation instead of copying
// it: once the permutation of a seed is memoized, building
// H2DSE-16-1-64 (1.1M sectors of 1 KB, 4.4 MB of permutation) allocates
// less than one byte per sector.
func TestBuildAllocatesLessThanItsSectors(t *testing.T) {
	spec, err := design.Parse("H2DSE-16-1-64")
	if err != nil {
		t.Fatal(err)
	}
	ms, _, _, err := spec.Build(buildSys) // memoizes the placement
	if err != nil {
		t.Fatal(err)
	}
	sectors := uint64(ms.(interface{ Sectors() uint32 }).Sectors())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, _, err := spec.Build(buildSys); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= sectors {
		t.Errorf("second build of %s allocated %d bytes, want under %d (one per sector)", spec.Name, got, sectors)
	}
}

// TestDRAMCacheBuildAllocatesLessThanItsLines pins that a DRAM cache
// allocates its tag store in pages on first touch instead of at build:
// building DFC-64 (1M lines of 64 B) allocates less than one byte per
// line.
func TestDRAMCacheBuildAllocatesLessThanItsLines(t *testing.T) {
	spec, err := design.Parse("DFC-64")
	if err != nil {
		t.Fatal(err)
	}
	lines := buildSys.NMBytes / 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, _, err := spec.Build(buildSys); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= lines {
		t.Errorf("building %s allocated %d bytes, want under %d (one per line)", spec.Name, got, lines)
	}
}

// coldSeeds counts the placement seeds handed out by coldSeed.
var coldSeeds atomic.Uint64

// coldSeed returns a placement seed that no other test or benchmark in
// this binary uses, so a build at it finds its placement absent from
// the memo. Seeds step by 2: seeds 2k and 2k+1 share one placement.
func coldSeed() uint64 { return 1<<48 + 2*coldSeeds.Add(1) }

// TestColdMigrationBuildAllocatesOnePermutation pins that MemPod and
// LGM memoize the owners of their NM slots only: a build at a seed the
// memo has not seen allocates one permutation of all sectors (4 bytes
// each), a 4-byte owner for each NM slot (1/17 of the sectors at the
// 1:16 ratio) and the machine, under 5 bytes per NM+FM sector. With an
// owner for every slot it would be over 8.
func TestColdMigrationBuildAllocatesOnePermutation(t *testing.T) {
	for _, name := range []string{"MPOD", "LGM"} {
		spec, err := design.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		sys := buildSys
		sys.Seed = coldSeed()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ms, _, _, err := spec.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		sectors := float64(ms.(interface{ Space() *migcommon.Space }).Space().Sectors())
		got := float64(after.TotalAlloc-before.TotalAlloc) / sectors
		t.Logf("cold build of %s: %.2f bytes per sector", name, got)
		if got >= 5 {
			t.Errorf("cold build of %s allocated %.2f bytes per sector, want under 5", name, got)
		}
	}
}

// TestReseedRecyclesPlacements pins that a machine reset to a seed the
// memo has not seen shuffles its placement into memory the memo
// recycled: once re-seeding has filled the memo and it evicts the
// placements of earlier seeds, which no table reads any more, re-seeding
// a MemPod machine through 8 new seeds allocates under a tenth of a
// permutation (4 bytes per sector) per seed.
func TestReseedRecyclesPlacements(t *testing.T) {
	spec, err := design.Parse("MPOD")
	if err != nil {
		t.Fatal(err)
	}
	sys := buildSys
	sys.Seed = coldSeed()
	ms, _, _, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	for range 12 { // 12 placements of 2.4 MB overflow the 16 MB memo
		ms.Reset(coldSeed())
	}
	const seeds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range seeds {
		ms.Reset(coldSeed())
	}
	runtime.ReadMemStats(&after)
	perm := 4 * float64(ms.(interface{ Space() *migcommon.Space }).Space().Sectors())
	got := float64(after.TotalAlloc-before.TotalAlloc) / seeds / perm
	t.Logf("re-seeding MPOD: %.4f of a permutation per seed", got)
	if got >= 0.1 {
		t.Errorf("re-seeding MPOD allocated %.3f of a permutation per seed, want under 0.1", got)
	}
}

// BenchmarkBuild measures constructing designs of very different
// construction cost over fresh devices: with the placement memo warm,
// the Hybrid2 design-space corners, the migration baselines and a DRAM
// cache; cold (cold-<design>, a fresh seed per build, so each build
// shuffles its placement), the flat-space designs.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"H2DSE-1-1-64", "H2DSE-256-16-1024", "MPOD", "LGM", "DFC-64"} {
		b.Run(name, func(b *testing.B) {
			spec, err := design.Parse(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := spec.Build(buildSys); err != nil { // warms the memo
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := spec.Build(buildSys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, name := range []string{"MPOD", "LGM", "HYBRID2"} {
		b.Run("cold-"+name, func(b *testing.B) {
			spec, err := design.Parse(name)
			if err != nil {
				b.Fatal(err)
			}
			sys := buildSys
			b.ReportAllocs()
			for b.Loop() {
				sys.Seed = coldSeed()
				if _, _, _, err := spec.Build(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
