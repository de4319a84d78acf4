package design_test

import (
	"runtime"
	"testing"

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

// BenchmarkBuild measures constructing designs of very different
// construction cost over fresh devices, with the placement memo warm:
// the Hybrid2 design-space corners, the migration baselines and a DRAM
// cache.
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
}
