package footprint

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "FOOTPRINT",
		Doc:     "footprint cache (2 KB pages, predicted fills)",
		Kind:    design.KindExtra,
		Order:   5,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Default(sys.NMBytes), nm, fm), nil
		},
	})
}
