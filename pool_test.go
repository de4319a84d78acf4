package hybridmem

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hybridmem/internal/exp"
)

// poolSeeds hands out seeds that no other run in this binary uses, so a
// test's first run of a design finds no machine of its system in the
// process's pool of idle machines, however often the test runs.
var poolSeeds atomic.Uint64

func unusedSeed() uint64 { return 1<<40 + poolSeeds.Add(1) }

// TestRunReusesMachineAcrossCalls: each Run call makes its own runner,
// yet four calls of one design over four workloads build one machine:
// the later calls reset the machine the first one left in the pool.
func TestRunReusesMachineAcrossCalls(t *testing.T) {
	cfg := quickCfg()
	cfg.Seed = unusedSeed()
	before := exp.MachineBuilds()
	for _, wl := range []string{"lbm", "mcf", "xz", "gcc"} {
		if _, err := Run("HYBRID2", wl, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := exp.MachineBuilds() - before; n != 1 {
		t.Errorf("four Run calls of one design built %d machines, want 1", n)
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
