package config

import "testing"

func TestScaledDividesCapacitiesLinearly(t *testing.T) {
	sys := Scaled(16, 1)
	if sys.LLCBytes != PaperLLCBytes/16 {
		t.Errorf("LLC %d, want %d", sys.LLCBytes, PaperLLCBytes/16)
	}
	if sys.NMBytes != PaperNM1GB/16 {
		t.Errorf("NM %d, want %d", sys.NMBytes, PaperNM1GB/16)
	}
	if sys.FMBytes != PaperFMBytes/16 {
		t.Errorf("FM %d, want %d", sys.FMBytes, PaperFMBytes/16)
	}
}

func TestScaledPreservesCapacityRatios(t *testing.T) {
	for _, scale := range []int{1, 2, 8, 16, 64} {
		for _, ratio := range []int{1, 2, 4} {
			sys := Scaled(scale, ratio)
			if got := sys.FMBytes / sys.NMBytes; got != 16/uint64(ratio) {
				t.Errorf("scale %d ratio %d: FM/NM = %d, want %d", scale, ratio, got, 16/ratio)
			}
			if got := sys.FMBytes / sys.Hybrid2CacheBytes(); got != PaperFMBytes/PaperHybrid2DC {
				t.Errorf("scale %d: FM/DC ratio %d changed under scaling", scale, got)
			}
		}
	}
}

func TestScaledNMRatio(t *testing.T) {
	one := Scaled(16, 1)
	four := Scaled(16, 4)
	if four.NMBytes != 4*one.NMBytes {
		t.Errorf("4:16 NM = %d, want 4x the 1:16 NM %d", four.NMBytes, one.NMBytes)
	}
	if four.FMBytes != one.FMBytes {
		t.Errorf("FM changed with the NM ratio: %d vs %d", four.FMBytes, one.FMBytes)
	}
}

func TestScaledPanicsOnInvalidInputs(t *testing.T) {
	for _, in := range [][2]int{{0, 0}, {-3, -1}, {0, 1}, {16, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%d, %d) did not panic", in[0], in[1])
				}
			}()
			Scaled(in[0], in[1])
		}()
	}
}

func TestTimeConstantsScaleWithCapacity(t *testing.T) {
	s1 := Scaled(1, 1)
	s16 := Scaled(16, 1)
	if s1.IntervalCycles() != PaperIntervalCycles {
		t.Errorf("unscaled interval %d, want %d", s1.IntervalCycles(), PaperIntervalCycles)
	}
	if s16.IntervalCycles() != PaperIntervalCycles/16 {
		t.Errorf("scaled interval %d, want %d", s16.IntervalCycles(), PaperIntervalCycles/16)
	}
	if s16.FMBudgetResetCycles() != PaperFMBudgetResetCycles/16 {
		t.Errorf("scaled budget reset %d, want %d", s16.FMBudgetResetCycles(), PaperFMBudgetResetCycles/16)
	}
}

func TestHybrid2CacheBytes(t *testing.T) {
	if got := Scaled(1, 1).Hybrid2CacheBytes(); got != PaperHybrid2DC {
		t.Errorf("unscaled DRAM cache %d, want %d", got, uint64(PaperHybrid2DC))
	}
	if got := Scaled(16, 1).Hybrid2CacheBytes(); got != PaperHybrid2DC/16 {
		t.Errorf("scaled DRAM cache %d, want %d", got, uint64(PaperHybrid2DC/16))
	}
	// The DRAM cache must hold a whole number of sectors at every scale
	// the experiments use, or the XTA sizing breaks.
	for _, scale := range []int{1, 2, 4, 8, 16, 32} {
		if got := Scaled(scale, 1).Hybrid2CacheBytes(); got%SectorBytes != 0 {
			t.Errorf("scale %d: cache %d not sector-aligned", scale, got)
		}
	}
}
