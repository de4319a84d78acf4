package design_test

// The golden refactor test: every design name the engine accepted before
// the registry existed must still resolve, build and simulate to
// byte-identical results. legacyBuild below is a verbatim copy of the
// pre-refactor exp.Runner.build switch (PR 1); if the registry wiring of
// any organization drifts from it, the rendered result tables differ and
// this test pinpoints the design.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hybridmem/internal/baselines/banshee"
	"hybridmem/internal/baselines/cameo"
	"hybridmem/internal/baselines/chameleon"
	"hybridmem/internal/baselines/dramcache"
	"hybridmem/internal/baselines/flat"
	"hybridmem/internal/baselines/footprint"
	"hybridmem/internal/baselines/lgm"
	"hybridmem/internal/baselines/mempod"
	"hybridmem/internal/baselines/silcfm"
	"hybridmem/internal/config"
	"hybridmem/internal/core"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// preRefactorNames is every design-name shape the old build switch
// recognized: main, extra, ablation, DSE and parameterized forms.
var preRefactorNames = []string{
	"Baseline",
	"MPOD", "CHA", "LGM", "TAGLESS", "DFC", "HYBRID2",
	"CAMEO", "POM", "SILC-FM", "ALLOY", "FOOTPRINT", "BANSHEE",
	"DFC-512", "DFC-2048",
	"IDEAL-64", "IDEAL-1024",
	"H2-CacheOnly", "H2-MigrAll", "H2-MigrNone", "H2-NoRemap",
	"H2ABL-ctr-3", "H2ABL-reset-25000", "H2ABL-stack-64",
	"H2ABL-assoc-4", "H2ABL-free-250",
	"H2DSE-64-2-256", "H2DSE-128-4-64",
}

// TestGoldenRegistryMatchesLegacyBuild renders one result table per
// construction path — the legacy switch and the registry — and requires
// the tables to be byte-identical.
func TestGoldenRegistryMatchesLegacyBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every design twice")
	}
	var wls []workload.Spec
	for _, n := range []string{"mcf", "xz"} {
		wl, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("no workload %s", n)
		}
		wls = append(wls, wl)
	}
	sys := config.Scaled(16, 1)
	sys.InstrPerCore = 30_000

	render := func(build func(name string) (memtypes.MemorySystem, *memsys.Device, *memsys.Device, error)) string {
		var b strings.Builder
		for _, name := range preRefactorNames {
			for _, wl := range wls {
				ms, nm, fm, err := build(name)
				if err != nil {
					t.Fatalf("build %s: %v", name, err)
				}
				res := sim.Run(wl, ms, nm, fm, sys)
				fmt.Fprintf(&b, "%s|%s|%#v\n", name, wl.Name, res)
			}
		}
		return b.String()
	}

	legacy := render(func(name string) (memtypes.MemorySystem, *memsys.Device, *memsys.Device, error) {
		return legacyBuild(name, sys)
	})
	registry := render(func(name string) (memtypes.MemorySystem, *memsys.Device, *memsys.Device, error) {
		return design.Build(name, sys)
	})
	if legacy != registry {
		ll, rl := strings.Split(legacy, "\n"), strings.Split(registry, "\n")
		for i := range ll {
			if i >= len(rl) || ll[i] != rl[i] {
				t.Fatalf("tables diverge at line %d:\nlegacy:   %s\nregistry: %s", i+1, ll[i], rl[i])
			}
		}
		t.Fatal("tables differ in length")
	}
}

// legacyBuild is the pre-refactor exp.Runner.build, copied verbatim
// (receiver knobs inlined: the golden system carries seed and scale).
func legacyBuild(name string, sys config.System) (memtypes.MemorySystem, *memsys.Device, *memsys.Device, error) {
	fm := memsys.New(memsys.DDR4Config())
	if name == "Baseline" {
		return flat.NewFMOnly(fm), nil, fm, nil
	}
	nm := memsys.New(memsys.HBM2Config())
	remapEntries := int(sys.Hybrid2CacheBytes() / config.SectorBytes)

	switch {
	case name == "MPOD":
		cfg := mempod.Default(sys.NMBytes, sys.FMBytes, remapEntries, sys.Seed)
		cfg.IntervalCycles = memtypes.Tick(sys.IntervalCycles())
		cfg.MaxMigrations = 16
		cfg.MinCount = 3
		return mempod.New(cfg, nm, fm), nm, fm, nil
	case name == "CHA":
		return chameleon.New(chameleon.Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), remapEntries, sys.Seed), nm, fm), nm, fm, nil
	case name == "LGM":
		cfg := lgm.Default(sys.NMBytes, sys.FMBytes, remapEntries, sys.Seed)
		cfg.IntervalCycles = memtypes.Tick(sys.IntervalCycles())
		cfg.Watermark = 32
		return lgm.New(cfg, nm, fm), nm, fm, nil
	case name == "CAMEO":
		return cameo.New(cameo.Default(sys.NMBytes, sys.FMBytes, remapEntries, sys.Seed), nm, fm), nm, fm, nil
	case name == "POM":
		return chameleon.New(chameleon.PoM(sys.NMBytes, sys.FMBytes, remapEntries, sys.Seed), nm, fm), nm, fm, nil
	case name == "SILC-FM":
		return silcfm.New(silcfm.Default(sys.NMBytes, sys.FMBytes, remapEntries), nm, fm), nm, fm, nil
	case name == "BANSHEE":
		return banshee.New(banshee.Default(sys.NMBytes), nm, fm), nm, fm, nil
	case name == "TAGLESS":
		return dramcache.New(dramcache.Tagless(sys.NMBytes), nm, fm), nm, fm, nil
	case name == "ALLOY":
		return dramcache.New(dramcache.Alloy(sys.NMBytes), nm, fm), nm, fm, nil
	case name == "FOOTPRINT":
		return footprint.New(footprint.Default(sys.NMBytes), nm, fm), nm, fm, nil
	case name == "DFC":
		return dramcache.New(dramcache.DFC(sys.NMBytes, 1024), nm, fm), nm, fm, nil
	case strings.HasPrefix(name, "DFC-"):
		line, err := strconv.Atoi(name[len("DFC-"):])
		if err != nil {
			return nil, nil, nil, err
		}
		return dramcache.New(dramcache.DFC(sys.NMBytes, line), nm, fm), nm, fm, nil
	case strings.HasPrefix(name, "IDEAL-"):
		line, err := strconv.Atoi(name[len("IDEAL-"):])
		if err != nil {
			return nil, nil, nil, err
		}
		return dramcache.New(dramcache.Ideal(sys.NMBytes, line), nm, fm), nm, fm, nil
	case name == "HYBRID2":
		cfg := core.Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), sys.Seed)
		cfg.FMBudgetReset = memtypes.Tick(sys.FMBudgetResetCycles())
		return core.New(cfg, nm, fm), nm, fm, nil
	case strings.HasPrefix(name, "H2-"):
		cfg := core.Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), sys.Seed)
		cfg.FMBudgetReset = memtypes.Tick(sys.FMBudgetResetCycles())
		switch name[len("H2-"):] {
		case "CacheOnly":
			cfg.Mode = core.CacheOnly
		case "MigrAll":
			cfg.Mode = core.MigrateAll
		case "MigrNone":
			cfg.Mode = core.MigrateNone
		case "NoRemap":
			cfg.Mode = core.NoRemapOverhead
		default:
			return nil, nil, nil, errors.New("unknown Hybrid2 mode " + name)
		}
		return core.New(cfg, nm, fm), nm, fm, nil
	case strings.HasPrefix(name, "H2ABL-"):
		parts := strings.SplitN(name[len("H2ABL-"):], "-", 2)
		if len(parts) != 2 {
			return nil, nil, nil, errors.New("bad ablation design " + name)
		}
		knob := parts[0]
		val, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := core.Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), sys.Seed)
		cfg.FMBudgetReset = memtypes.Tick(sys.FMBudgetResetCycles())
		switch knob {
		case "ctr":
			cfg.CounterBits = val
		case "reset":
			cfg.FMBudgetReset = memtypes.Tick(val / sys.Scale)
		case "stack":
			cfg.FreeStackOnChip = val
		case "assoc":
			cfg.Assoc = val
		case "free":
			cfg.FreeSectors = uint32(uint64(cfg.Sectors()) * uint64(val) / 1000)
		default:
			return nil, nil, nil, errors.New("unknown ablation knob " + knob)
		}
		return core.New(cfg, nm, fm), nm, fm, nil
	case strings.HasPrefix(name, "H2DSE-"):
		parts := strings.Split(name[len("H2DSE-"):], "-")
		if len(parts) != 3 {
			return nil, nil, nil, errors.New("bad DSE design " + name)
		}
		cacheMB, err1 := strconv.Atoi(parts[0])
		sectorKB, err2 := strconv.Atoi(parts[1])
		line, err3 := strconv.Atoi(parts[2])
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, nil, nil, err
		}
		cfg := core.Default(sys.NMBytes, sys.FMBytes, uint64(cacheMB)<<20/uint64(sys.Scale), sys.Seed)
		cfg.FMBudgetReset = memtypes.Tick(sys.FMBudgetResetCycles())
		cfg.SectorBytes = sectorKB << 10
		cfg.LineBytes = line
		return core.New(cfg, nm, fm), nm, fm, nil
	}
	return nil, nil, nil, errors.New("unknown design " + name)
}
