package mempod

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "MPOD",
		Doc:     "MemPod interval-based page migration",
		Kind:    design.KindMain,
		Order:   1,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			cfg := Default(sys.NMBytes, sys.FMBytes, design.RemapEntries(sys), sys.Seed)
			cfg.IntervalCycles = memtypes.Tick(sys.IntervalCycles())
			// The cap matches the paper's per-run NM turnover: shortened
			// runs get proportionally more migrations per (scaled) interval.
			cfg.MaxMigrations = 16
			cfg.MinCount = 3
			return New(cfg, nm, fm), nil
		},
	})
}
