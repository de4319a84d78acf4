package chameleon

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "CHA",
		Doc:     "Chameleon cache/migration hybrid",
		Kind:    design.KindMain,
		Order:   2,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			cfg := Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), design.RemapEntries(sys), sys.Seed)
			return New(cfg, nm, fm), nil
		},
	})
	design.Register(design.Info{
		Name:    "POM",
		Doc:     "Page Overlay Migration (Chameleon without the cache slice, §2.2)",
		Kind:    design.KindExtra,
		Order:   2,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(PoM(sys.NMBytes, sys.FMBytes, design.RemapEntries(sys), sys.Seed), nm, fm), nil
		},
	})
}
