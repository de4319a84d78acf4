package core

import (
	"fmt"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// h2cfg resolves the paper's Hybrid2 configuration for a scaled system.
func h2cfg(sys config.System) Config {
	cfg := Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), sys.Seed)
	cfg.FMBudgetReset = clampTick(sys.FMBudgetResetCycles())
	return cfg
}

// clampTick keeps a scaled period at least one cycle: a zero
// FMBudgetReset would spin maybeResetBudget forever.
func clampTick(v uint64) memtypes.Tick {
	if v < 1 {
		return 1
	}
	return memtypes.Tick(v)
}

func init() {
	design.Register(design.Info{
		Name:    "HYBRID2",
		Doc:     "the paper's full design: sectored DRAM cache + migration + remap",
		Kind:    design.KindMain,
		Order:   6,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(h2cfg(sys), nm, fm), nil
		},
	})

	for i, v := range []struct {
		name, doc string
		mode      Mode
	}{
		{"H2-CacheOnly", "Fig. 14 ablation: DRAM cache alone, no migration", CacheOnly},
		{"H2-MigrAll", "Fig. 14 ablation: migrate every evicted FM sector", MigrateAll},
		{"H2-MigrNone", "Fig. 14 ablation: never migrate", MigrateNone},
		{"H2-NoRemap", "Fig. 14 ablation: remap metadata accesses are free", NoRemapOverhead},
	} {
		mode := v.mode
		design.Register(design.Info{
			Name:    v.name,
			Doc:     v.doc,
			Kind:    design.KindVariant,
			Order:   2 + i,
			NeedsNM: true,
			Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
				cfg := h2cfg(sys)
				cfg.Mode = mode
				return New(cfg, nm, fm), nil
			},
		})
	}

	design.Register(design.Info{
		Name:    "H2ABL",
		Doc:     "Hybrid2 design-choice sensitivity variant",
		Kind:    design.KindVariant,
		Order:   6,
		NeedsNM: true,
		Params: []design.Param{
			{Name: "knob", Doc: "constant to vary", Enum: []string{"ctr", "reset", "stack", "assoc", "free"}},
			{Name: "val", Doc: "knob value: counter bits, reset cycles, stack entries, XTA ways ≤ 16, or free per-mille", Min: 1, Max: 100_000_000},
		},
		Example: "H2ABL-ctr-9",
		Check: func(vals []design.Value) error {
			knob, v := vals[0].Raw, vals[1].Int
			switch knob {
			case "ctr":
				if v > 20 {
					return fmt.Errorf("H2ABL: counter width %d exceeds 20 bits", v)
				}
			case "stack":
				if v > 1<<16 {
					return fmt.Errorf("H2ABL: %d on-chip stack entries exceed 65536", v)
				}
			case "assoc":
				if v&(v-1) != 0 || v > cachesim.MaxAssoc {
					return fmt.Errorf("H2ABL: XTA associativity %d must be a power of two <= %d (the tag store's way limit)", v, cachesim.MaxAssoc)
				}
			case "free":
				if v > 1000 {
					return fmt.Errorf("H2ABL: free fraction %d exceeds 1000 per-mille", v)
				}
			}
			return nil
		},
		Build: func(spec design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			cfg := h2cfg(sys)
			val := spec.Int("val")
			switch spec.Raw("knob") {
			case "ctr": // access-counter width in bits (§3.7.1, paper: 9)
				cfg.CounterBits = val
			case "reset": // FM budget reset period in paper cycles (§3.7.3)
				cfg.FMBudgetReset = clampTick(uint64(val) / uint64(sys.Scale))
			case "stack": // on-chip Free-FM-Stack entries (§3.3, paper: 16)
				cfg.FreeStackOnChip = val
			case "assoc": // XTA associativity (paper: 16)
				cfg.Assoc = val
			case "free": // §3.8 extension with the last val/1000 of memory hinted free
				cfg.FreeSectors = uint32(uint64(cfg.Sectors()) * uint64(val) / 1000)
			}
			return New(cfg, nm, fm), nil
		},
	})

	design.Register(design.Info{
		Name:    "H2DSE",
		Doc:     "Hybrid2 Fig. 11 design-space point",
		Kind:    design.KindVariant,
		Order:   7,
		NeedsNM: true,
		Params: []design.Param{
			{Name: "cacheMB", Doc: "paper-scale DRAM-cache size in MB", Min: 1, Max: 1024},
			{Name: "sectorKB", Doc: "sector size in KB", Min: 1, Max: 64},
			{Name: "lineB", Doc: "cache-line size in bytes", Min: 64, Max: 4096, Pow2: true},
		},
		Example: "H2DSE-64-2-256",
		Check: func(vals []design.Value) error {
			sector, line := vals[1].Int<<10, vals[2].Int
			if sector%line != 0 {
				return fmt.Errorf("H2DSE: sector (%d B) must be a multiple of the line size (%d B)", sector, line)
			}
			if sector/line > 64 {
				return fmt.Errorf("H2DSE: %d lines per sector exceed the 64-line valid/dirty vectors", sector/line)
			}
			return nil
		},
		Build: func(spec design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			cacheBytes := uint64(spec.Int("cacheMB")) << 20 / uint64(sys.Scale)
			cfg := Default(sys.NMBytes, sys.FMBytes, cacheBytes, sys.Seed)
			cfg.FMBudgetReset = clampTick(sys.FMBudgetResetCycles())
			cfg.SectorBytes = spec.Int("sectorKB") << 10
			cfg.LineBytes = spec.Int("lineB")
			return New(cfg, nm, fm), nil
		},
	})
}
