package hybridmem

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/exp"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// TestRunReusesMachineAcrossCalls: each Run call makes its own runner,
// yet once a first call of a design has left its machine in the pool,
// three more calls over other workloads, each at another seed, build no
// machine: they reset that one to their seeds.
func TestRunReusesMachineAcrossCalls(t *testing.T) {
	cfg := quickCfg()
	if _, err := Run("HYBRID2", "lbm", cfg); err != nil {
		t.Fatal(err)
	}
	before := exp.MachineBuilds()
	for i, wl := range []string{"mcf", "xz", "gcc"} {
		cfg.Seed = uint64(1<<40 + 2*i)
		if _, err := Run("HYBRID2", wl, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := exp.MachineBuilds() - before; n != 0 {
		t.Errorf("three later Run calls of one design built %d machines, want none", n)
	}
}

// freshRun returns the result of design on workloadName at cfg from a
// machine built for that run alone, outside the pool.
func freshRun(t *testing.T, designName, workloadName string, cfg Config) Result {
	t.Helper()
	wl, ok := workload.ByName(workloadName)
	if !ok {
		t.Fatalf("unknown workload %q", workloadName)
	}
	sys := config.Scaled(cfg.Scale, cfg.NMRatio16)
	sys.InstrPerCore, sys.Seed = cfg.InstrPerCore, cfg.Seed
	ms, nm, fm, err := design.Build(designName, sys)
	if err != nil {
		t.Fatal(err)
	}
	return fromSim(sim.Run(wl, ms, nm, fm, sys))
}

// TestSeedsInterleaveOnPooledMachines: one process runs the baseline and
// the six main designs at seeds 1, 2 and 3, switching seed on every
// design's every run, so that each run resets a pooled machine placed
// for another seed; every result equals a fresh build's at its seed.
func TestSeedsInterleaveOnPooledMachines(t *testing.T) {
	cfg := quickCfg()
	cfg.InstrPerCore = 20_000
	for _, wl := range []string{"mcf", "lbm"} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg.Seed = seed
			for _, d := range Designs() {
				got, err := Run(d, wl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != freshRun(t, d, wl, cfg) {
					t.Errorf("%s/%s at seed %d: result on a pooled machine differs from a fresh build's", d, wl, cfg.Seed)
				}
			}
		}
	}
}

// TestConcurrentCallersShareThePool: Run and ReplayTrace callers on
// many goroutines take machines from one pool and return them, and each
// gets the result a serial caller gets (run with -race).
func TestConcurrentCallersShareThePool(t *testing.T) {
	cfg := quickCfg()
	cfg.InstrPerCore = 20_000
	var text strings.Builder
	for i := range 512 {
		fmt.Fprintf(&text, "%d %d %d %s\n", i%8, i%5, 64*(i*37%4096), [2]string{"R", "W"}[i%3/2])
	}
	type call struct {
		design string
		replay bool
	}
	var calls []call
	for _, d := range []string{"HYBRID2", "MPOD", "DFC"} {
		calls = append(calls, call{d, false}, call{d, true})
	}
	do := func(c call) (Result, error) {
		if c.replay {
			return ReplayTrace(c.design, "t", strings.NewReader(text.String()), ReplayOptions{MLP: 2}, cfg)
		}
		return Run(c.design, "mcf", cfg)
	}
	want := make([]Result, len(calls))
	for i, c := range calls {
		var err error
		if want[i], err = do(c); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 4
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range calls {
				i := (k + g) % len(calls)
				got, err := do(calls[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("caller %d: %s (replay %v) differs from the serial result", g, calls[i].design, calls[i].replay)
				}
			}
		}()
	}
	wg.Wait()
}
