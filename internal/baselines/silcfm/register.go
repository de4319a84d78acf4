package silcfm

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "SILC-FM",
		Doc:     "subblocked interleaved line cache with locking (§2.2)",
		Kind:    design.KindExtra,
		Order:   3,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Default(sys.NMBytes, sys.FMBytes, design.RemapEntries(sys)), nm, fm), nil
		},
	})
}
