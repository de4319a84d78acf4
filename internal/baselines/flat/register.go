package flat

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name: "Baseline",
		Doc:  "far memory only (the paper's normalization point)",
		Kind: design.KindBaseline,
		Build: func(_ design.Spec, _ config.System, _, fm *memsys.Device) (memtypes.Resetter, error) {
			return NewFMOnly(fm), nil
		},
	})
}
