package dramcache

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// lineParam is the shared cache-line-size grammar of the parameterized
// DRAM caches. The upper bound is a parse-time sanity cap; the scaled NM
// capacity still constrains the real maximum at build time.
func lineParam(doc string, optional bool, def int) design.Param {
	return design.Param{
		Name: "lineB", Doc: doc,
		Min: 64, Max: 1 << 16, Pow2: true,
		Optional: optional, Default: def,
	}
}

func init() {
	design.Register(design.Info{
		Name:    "TAGLESS",
		Doc:     "tagless DRAM cache (4 KB pages)",
		Kind:    design.KindMain,
		Order:   4,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Tagless(sys.NMBytes), nm, fm), nil
		},
	})
	design.Register(design.Info{
		Name:    "ALLOY",
		Doc:     "direct-mapped TAD cache (64 B lines)",
		Kind:    design.KindExtra,
		Order:   4,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Alloy(sys.NMBytes), nm, fm), nil
		},
	})
	design.Register(design.Info{
		Name:    "DFC",
		Doc:     "decoupled fused cache (default 1 KB lines)",
		Kind:    design.KindMain,
		Order:   5,
		NeedsNM: true,
		Params:  []design.Param{lineParam("cache-line size in bytes", true, 1024)},
		Example: "DFC-1024",
		Build: func(spec design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(DFC(sys.NMBytes, spec.Int("lineB")), nm, fm), nil
		},
	})
	design.Register(design.Info{
		Name:    "IDEAL",
		Doc:     "ideal (no tag/latency overhead) cache at a line size",
		Kind:    design.KindVariant,
		Order:   1,
		NeedsNM: true,
		Params:  []design.Param{lineParam("cache-line size in bytes", false, 0)},
		Example: "IDEAL-256",
		Build: func(spec design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.Resetter, error) {
			return New(Ideal(sys.NMBytes, spec.Int("lineB")), nm, fm), nil
		},
	})
}
