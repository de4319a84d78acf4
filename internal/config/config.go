// Package config centralizes the system configuration of Table 1 and the
// linear capacity scaling described in DESIGN.md §6: all capacities
// (LLC, NM, FM, Hybrid2's DRAM cache, workload footprints) divide by
// Scale while granularities (sectors, cache lines) and time constants
// (intervals, counter reset periods) stay at their paper values, which
// preserves every capacity ratio the policies depend on.
package config

import "fmt"

// Table 1 processor-side constants.
const (
	Cores      = 8
	IssueWidth = 4
	CPUFreqGHz = 3.2
	LLCLatency = 14 // cycles
	LLCAssoc   = 16
)

// Paper capacities (before scaling).
const (
	PaperLLCBytes    = 8 << 20  // 8 MB shared L3
	PaperFMBytes     = 16 << 30 // 16 GB DDR4
	PaperNM1GB       = 1 << 30
	PaperHybrid2DC   = 64 << 20 // Hybrid2's DRAM-cache slice of NM
	SectorBytes      = 2048     // migration/sector granularity
	Hybrid2LineBytes = 256      // Hybrid2 DRAM-cache line (best DSE point)
	XTAAssoc         = 16
)

// Paper time constants (CPU cycles). These scale with capacity (see
// System.IntervalCycles): the schemes' adaptation cadence is tied to how
// fast they can fill NM, and both NM and the simulated instruction streams
// shrink with the scale factor.
const (
	PaperIntervalCycles      = 160_000 // 50 µs at 3.2 GHz (MemPod, LGM)
	PaperFMBudgetResetCycles = 100_000 // Hybrid2 FM-access-counter reset (§3.7.3)
)

// DefaultScale is the default linear capacity divisor (DESIGN.md §6).
const DefaultScale = 16

// System is a fully resolved, scaled system configuration.
type System struct {
	Scale        int
	LLCBytes     int
	NMBytes      uint64 // total near memory
	FMBytes      uint64 // far memory
	InstrPerCore uint64 // per-core instruction budget
	Seed         uint64
	// NextLinePrefetch enables a simple next-line prefetcher at the LLC:
	// every demand miss also fills the following line (off by default;
	// the paper's configuration has no prefetcher and notes that
	// advanced prefetching is orthogonal to the proposed techniques).
	NextLinePrefetch bool
}

// ValidateRun checks the run-configuration invariants every entry point
// (the public API's Config.Validate, the serve layer's request
// validation) shares: a positive capacity scale, one of the paper's
// NM:FM ratios, and a non-zero instruction budget. Field names in the
// errors match the public hybridmem.Config fields.
func ValidateRun(scale, nmRatio16 int, instrPerCore uint64) error {
	if scale < 1 {
		return fmt.Errorf("Scale must be >= 1, got %d", scale)
	}
	switch nmRatio16 {
	case 1, 2, 4:
	default:
		return fmt.Errorf("NMRatio16 must be 1, 2 or 4 (the paper's NM:FM ratios), got %d", nmRatio16)
	}
	if instrPerCore == 0 {
		return fmt.Errorf("InstrPerCore must be > 0")
	}
	return nil
}

// Scaled returns the system at the given scale with nmRatio16 sixteenths
// of FM as NM (1, 2 or 4 in the paper: NM:FM of 1:16, 2:16, 4:16). It
// panics on a scale or ratio below 1; entry points reject those first
// through ValidateRun.
func Scaled(scale, nmRatio16 int) System {
	if scale < 1 || nmRatio16 < 1 {
		panic(fmt.Sprintf("config: scale %d and NM ratio %d/16 must both be at least 1", scale, nmRatio16))
	}
	return System{
		Scale:        scale,
		LLCBytes:     PaperLLCBytes / scale,
		NMBytes:      uint64(nmRatio16) * PaperNM1GB / uint64(scale),
		FMBytes:      PaperFMBytes / uint64(scale),
		InstrPerCore: 1_000_000,
		Seed:         1,
	}
}

// IntervalCycles returns the scaled 50 µs interval of MemPod and LGM.
func (s System) IntervalCycles() uint64 {
	return PaperIntervalCycles / uint64(s.Scale)
}

// FMBudgetResetCycles returns Hybrid2's scaled budget-reset period.
func (s System) FMBudgetResetCycles() uint64 {
	return PaperFMBudgetResetCycles / uint64(s.Scale)
}

// Hybrid2CacheBytes returns the scaled size of Hybrid2's DRAM-cache slice.
func (s System) Hybrid2CacheBytes() uint64 {
	return PaperHybrid2DC / uint64(s.Scale)
}
