package cameo

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "CAMEO",
		Doc:     "line-granularity group migration (§2.2)",
		Kind:    design.KindExtra,
		Order:   1,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Default(sys.NMBytes, sys.FMBytes, design.RemapEntries(sys), sys.Seed), nm, fm), nil
		},
	})
}
