package lgm

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "LGM",
		Doc:     "LLC-guided migration",
		Kind:    design.KindMain,
		Order:   3,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			cfg := Default(sys.NMBytes, sys.FMBytes, design.RemapEntries(sys), sys.Seed)
			cfg.IntervalCycles = memtypes.Tick(sys.IntervalCycles())
			cfg.Watermark = 32
			return New(cfg, nm, fm), nil
		},
	})
}
