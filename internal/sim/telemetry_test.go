package sim_test

import (
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

func telemetrySys() config.System {
	sys := config.Scaled(config.DefaultScale, 16)
	sys.InstrPerCore = 20_000
	sys.Seed = 7
	return sys
}

// TestTelemetryPassivity pins the passivity contract across every
// registered design family: attaching a sampler must leave the run's
// Result exactly equal to the unsampled run, while still producing a
// non-empty, internally consistent series.
func TestTelemetryPassivity(t *testing.T) {
	spec, ok := workload.ByName("lbm")
	if !ok {
		t.Fatal("workload lbm missing")
	}
	sys := telemetrySys()
	for _, info := range design.AllInfos() {
		name := info.SampleName()
		t.Run(name, func(t *testing.T) {
			ms, nm, fm, err := design.Build(name, sys)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want := sim.Run(spec, ms, nm, fm, sys)

			ms2, nm2, fm2, err := design.Build(name, sys)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			smp := telemetry.New(telemetry.Options{WindowInstr: 8192, MaxEpochs: 64})
			got := sim.RunOn(sim.NewHost(sys), spec, ms2, nm2, fm2, sys, smp)
			if got != want {
				t.Errorf("sampled run diverges from unsampled:\n got %+v\nwant %+v", got, want)
			}

			ser := smp.Series()
			if ser == nil || len(ser.Epochs) == 0 {
				t.Fatal("sampled run produced no epochs")
			}
			last := ser.Epochs[len(ser.Epochs)-1]
			if ser.EpochsDropped == 0 {
				if last.EndInstr != got.Instructions {
					t.Errorf("final epoch ends at %d instructions, Result has %d", last.EndInstr, got.Instructions)
				}
				var instr, misses uint64
				for _, e := range ser.Epochs {
					instr += e.Instr
					misses += e.LLCMisses
				}
				if instr != got.Instructions || misses != got.LLCMisses {
					t.Errorf("series totals instr=%d misses=%d, Result instr=%d misses=%d",
						instr, misses, got.Instructions, got.LLCMisses)
				}
			}
			if last.EndCycle != uint64(got.Cycles) {
				t.Errorf("final epoch ends at cycle %d, Result has %d", last.EndCycle, got.Cycles)
			}
			if len(ser.Phases) == 0 {
				t.Error("series has no phase summary")
			}
		})
	}
}

// TestTelemetrySeriesDeterministic: the same run yields a deeply equal
// series every time.
func TestTelemetrySeriesDeterministic(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	sys := telemetrySys()
	run := func() *telemetry.Series {
		ms, nm, fm, err := design.Build("HYBRID2", sys)
		if err != nil {
			t.Fatal(err)
		}
		smp := telemetry.New(telemetry.Options{WindowInstr: 4096, MaxEpochs: 128})
		sim.RunOn(sim.NewHost(sys), spec, ms, nm, fm, sys, smp)
		return smp.Series()
	}
	a, b := run(), run()
	if a.EpochsTotal != b.EpochsTotal || len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("series shape differs: %d/%d vs %d/%d", a.EpochsTotal, len(a.Epochs), b.EpochsTotal, len(b.Epochs))
	}
	for i := range a.Epochs {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch %d differs:\n%+v\n%+v", i, a.Epochs[i], b.Epochs[i])
		}
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase count differs: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Fatalf("phase %d differs", i)
		}
	}
}

// TestTelemetryNilSamplerRunPath: RunOn with a nil sampler is
// exactly Run, on the same built design.
func TestTelemetryNilSamplerRunPath(t *testing.T) {
	spec, _ := workload.ByName("lbm")
	sys := telemetrySys()
	ms, nm, fm, err := design.Build("HYBRID2", sys)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(spec, ms, nm, fm, sys)
	ms2, nm2, fm2, _ := design.Build("HYBRID2", sys)
	got := sim.RunOn(sim.NewHost(sys), spec, ms2, nm2, fm2, sys, nil)
	if got != want {
		t.Fatalf("nil-sampler RunOn diverges:\n got %+v\nwant %+v", got, want)
	}
}
