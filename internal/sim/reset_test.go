package sim_test

// Reset equivalence: a machine reset after a run, to the same seed or
// another, must simulate the next run exactly like a fresh build at that
// seed — same Result, same telemetry series — for every registered
// design.

import (
	"reflect"
	"testing"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

// resetNames is every registered family's sample name plus every H2ABL
// knob, the free-space hints included.
func resetNames() []string {
	var names []string
	for _, info := range design.AllInfos() {
		names = append(names, info.SampleName())
	}
	return append(names, "H2ABL-reset-25000", "H2ABL-stack-64", "H2ABL-assoc-4", "H2ABL-free-250", "H2ABL-free-1000")
}

// invariantsHold checks the design's own invariants, where it has any.
func invariantsHold(ms memtypes.MemorySystem) bool {
	switch m := ms.(type) {
	case interface{ CheckInvariants() bool }:
		return m.CheckInvariants()
	case interface{ Space() *migcommon.Space }:
		return m.Space().CheckInvariants()
	}
	return true
}

func sampledRun(wl workload.Spec, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System) (sim.Result, *telemetry.Series) {
	smp := telemetry.New(telemetry.Options{WindowInstr: 16384})
	return sim.RunOn(sim.NewHost(sys), wl, ms, nm, fm, sys, smp), smp.Series()
}

// TestResetMatchesFreshBuild runs every design on one machine built at
// seed 7 and reset to seeds 7, 9, 2^40+3 and 7 again, with the
// instruction budget and the workload changing too, and compares every
// run on the reset machine with a fresh build at that run's seed.
func TestResetMatchesFreshBuild(t *testing.T) {
	sys := config.Scaled(config.DefaultScale, 2)
	steps := []struct {
		wl    string
		seed  uint64
		instr uint64
	}{{"lbm", 7, 20_000}, {"mcf", 7, 15_000}, {"omnetpp", 9, 20_000}, {"lbm", 1<<40 + 3, 15_000}, {"mcf", 7, 20_000}}
	for _, name := range resetNames() {
		spec, err := design.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		sys.Seed = steps[0].seed
		ms, nm, fm, err := spec.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range steps {
			wl, _ := workload.ByName(step.wl)
			sys.Seed, sys.InstrPerCore = step.seed, step.instr
			if i > 0 {
				ms.Reset(sys.Seed)
				if nm != nil {
					nm.Reset()
				}
				fm.Reset()
			}
			if !invariantsHold(ms) {
				t.Fatalf("%s: invariants broken before run %d (%s at seed %d)", name, i, wl.Name, sys.Seed)
			}
			got, gotSer := sampledRun(wl, ms, nm, fm, sys)
			fms, fnm, ffm, err := spec.Build(sys)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSer := sampledRun(wl, fms, fnm, ffm, sys)
			if got != want {
				t.Errorf("%s: run %d (%s at seed %d) on a reset machine:\n got %+v\nwant %+v", name, i, wl.Name, sys.Seed, got, want)
			}
			if !reflect.DeepEqual(gotSer, wantSer) {
				t.Errorf("%s: run %d (%s at seed %d): series on a reset machine differs from a fresh build's", name, i, wl.Name, sys.Seed)
			}
		}
	}
}
