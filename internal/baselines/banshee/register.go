package banshee

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "BANSHEE",
		Doc:     "frequency-gated page cache (§2.1)",
		Kind:    design.KindExtra,
		Order:   6,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Default(sys.NMBytes), nm, fm), nil
		},
	})
}
