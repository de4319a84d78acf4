package sim_test

// The engine-rewrite pin: the batch-pulling run loop, which picks the
// earliest core with a branch-free scan over the live cores' times, must
// reproduce the old linear-scan reference loop's Result
// bit-identically for every registered design, and its steady state must
// not allocate per record.

import (
	"bytes"
	"testing"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/cpu"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/stats"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// referenceRunSources is the pre-rewrite loop: linear earliest-core
// scan, one record pulled per selection, interface dispatch into ms.
func referenceRunSources(name string, srcs []sim.Source, mlp int, ms memtypes.MemorySystem, nm, fm *memsys.Device, sys config.System) sim.Result {
	llc := cachesim.New(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)
	var lat stats.Histogram

	n := len(srcs)
	cores := make([]*cpu.Core, n)
	active := n
	done := make([]bool, n)
	for i := range cores {
		cores[i] = cpu.New(mlp)
	}

	var one [1]memtypes.Rec
	for active > 0 {
		sel := -1
		for i, c := range cores {
			if done[i] {
				continue
			}
			if sel < 0 || c.Time < cores[sel].Time {
				sel = i
			}
		}
		c := cores[sel]
		if srcs[sel].NextBatch(one[:]) == 0 {
			c.DrainMisses()
			done[sel] = true
			active--
			continue
		}
		gap, addr, write := one[0].Gap, one[0].Addr, one[0].Write
		c.AdvanceCompute(gap)
		c.RetireMemOp()
		c.AddLatency(config.LLCLatency)
		hit, victim, evicted := llc.Access(addr, write)
		if !hit {
			fill := ms.Access(c.Time, addr, false)
			if write {
				c.StallForWrite(fill)
			} else {
				lat.Add(uint64(fill - c.Time))
				c.StallForMiss(fill)
			}
		}
		if evicted && victim.Dirty {
			c.StallForWrite(ms.Access(c.Time, victim.Addr, true))
		}
		if !hit && sys.NextLinePrefetch {
			next := addr + memtypes.CPULineBytes
			if pHit, pVictim, pEvicted := llc.Access(next, false); !pHit {
				ms.Access(c.Time, next, false)
				if pEvicted && pVictim.Dirty {
					ms.Access(c.Time, pVictim.Addr, true)
				}
			}
		}
	}

	var cycles memtypes.Tick
	var instr uint64
	for _, c := range cores {
		if c.Time > cycles {
			cycles = c.Time
		}
		instr += c.Instructions
	}
	ms.Finish(cycles)

	res := sim.Result{
		Workload:     name,
		Design:       ms.Name(),
		Cycles:       cycles,
		Instructions: instr,
		LLCAccesses:  llc.Accesses,
		LLCMisses:    llc.Misses,
		Mem:          *ms.Stats(),
	}
	if cycles > 0 {
		res.IPC = float64(instr) / float64(cycles)
	}
	if instr > 0 {
		res.MPKI = float64(llc.Misses) / (float64(instr) / 1000)
	}
	if nm != nil {
		res.NMEnergyNJ = nm.DynamicEnergyNanoJ()
	}
	if fm != nil {
		res.FMEnergyNJ = fm.DynamicEnergyNanoJ()
	}
	res.LatMean = lat.Mean()
	res.LatP50 = memtypes.Tick(lat.Percentile(0.50))
	res.LatP99 = memtypes.Tick(lat.Percentile(0.99))
	return res
}

func engineSys() config.System {
	sys := config.Scaled(config.DefaultScale, 16)
	sys.InstrPerCore = 20_000
	sys.Seed = 7
	return sys
}

func engineSources(spec workload.Spec, sys config.System) []sim.Source {
	srcs := make([]sim.Source, config.Cores)
	for i := range srcs {
		srcs[i] = workload.NewStream(spec, i, sys.Scale, sys.InstrPerCore, sys.Seed)
	}
	return srcs
}

// TestHeapLoopMatchesLinearScan pins the rewritten engine, which pulls
// each core a batch at a time, against the reference loop, which pulls
// one record per selection, for every registered design.
func TestHeapLoopMatchesLinearScan(t *testing.T) {
	spec, ok := workload.ByName("lbm")
	if !ok {
		t.Fatal("workload lbm missing")
	}
	sys := engineSys()
	mlp := sim.MLPFor(spec)
	for _, info := range design.AllInfos() {
		name := info.Name
		if info.Example != "" {
			name = info.Example
		}
		t.Run(name, func(t *testing.T) {
			ms, nm, fm, err := design.Build(name, sys)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want := referenceRunSources(spec.Name, engineSources(spec, sys), mlp, ms, nm, fm, sys)

			ms2, nm2, fm2, err := design.Build(name, sys)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			got := sim.RunSources(spec.Name, engineSources(spec, sys), mlp, ms2, nm2, fm2, sys)
			if got != want {
				t.Errorf("batched engine diverges from reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestHeapLoopMatchesLinearScanPrefetch covers the next-line-prefetch
// branch of the loop on the main design.
func TestHeapLoopMatchesLinearScanPrefetch(t *testing.T) {
	spec, _ := workload.ByName("lbm")
	sys := engineSys()
	sys.NextLinePrefetch = true
	mlp := sim.MLPFor(spec)
	ms, nm, fm, err := design.Build("HYBRID2", sys)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRunSources(spec.Name, engineSources(spec, sys), mlp, ms, nm, fm, sys)
	ms2, nm2, fm2, err := design.Build("HYBRID2", sys)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.RunSources(spec.Name, engineSources(spec, sys), mlp, ms2, nm2, fm2, sys)
	if got != want {
		t.Errorf("prefetch run diverges:\n got %+v\nwant %+v", got, want)
	}
}

// runAllocs measures the allocations of one full build+run at the given
// instruction budget. Subtracting two budgets cancels the construction
// allocations, isolating the per-record steady state.
func runAllocs(t *testing.T, designName string, instr uint64) float64 {
	t.Helper()
	spec, _ := workload.ByName("lbm")
	sys := engineSys()
	sys.InstrPerCore = instr
	mlp := sim.MLPFor(spec)
	return testing.AllocsPerRun(1, func() {
		ms, nm, fm, err := design.Build(designName, sys)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSources(spec.Name, engineSources(spec, sys), mlp, ms, nm, fm, sys)
	})
}

// TestSteadyStateZeroAllocsSynthetic pins the per-record allocation count
// of the hot loop at zero: quadrupling the simulated records must not
// change the run's allocation count (up to a small amortized-slice-growth
// tolerance for designs with demand-grown free lists).
func TestSteadyStateZeroAllocsSynthetic(t *testing.T) {
	for _, tc := range []struct {
		design    string
		tolerance float64
	}{
		{"Baseline", 0},
		{"HYBRID2", 16},
	} {
		short := runAllocs(t, tc.design, 30_000)
		long := runAllocs(t, tc.design, 120_000)
		if diff := long - short; diff < -tc.tolerance || diff > tc.tolerance {
			t.Errorf("%s: allocs grew with record count: %v at 30k instr, %v at 120k (diff %v, tolerance %v)",
				tc.design, short, long, diff, tc.tolerance)
		}
	}
}

// encodeTrace renders the synthetic workload to an uncompressed binary
// trace in memory, one record per core in turn.
func encodeTrace(t *testing.T, spec workload.Spec, sys config.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := trace.NewStreamWriter(&buf, trace.FormatBinary, false)
	srcs := make([]*workload.Stream, config.Cores)
	for i := range srcs {
		srcs[i] = workload.NewStream(spec, i, sys.Scale, sys.InstrPerCore, sys.Seed)
	}
	var rec [1]memtypes.Rec
	for {
		wrote := false
		for core, s := range srcs {
			if s.NextBatch(rec[:]) == 0 {
				continue
			}
			wrote = true
			if err := sw.Append(core, rec[0]); err != nil {
				t.Fatal(err)
			}
		}
		if !wrote {
			break
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func replayAllocs(t *testing.T, raw []byte, sys config.System, mlp int) float64 {
	t.Helper()
	return testing.AllocsPerRun(1, func() {
		sr, err := trace.NewStreamReader(bytes.NewReader(raw), config.Cores, 0)
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]sim.Source, config.Cores)
		for i := range srcs {
			srcs[i] = sr.Source(i)
		}
		ms, nm, fm, err := design.Build("Baseline", sys)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSources("replay", srcs, mlp, ms, nm, fm, sys)
		if err := sr.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateZeroAllocsTraceReplay pins the binary-trace replay path:
// quadrupling the trace length must not change the allocation count
// beyond the decode queues' bounded warm-up growth.
func TestSteadyStateZeroAllocsTraceReplay(t *testing.T) {
	spec, _ := workload.ByName("lbm")
	sys := engineSys()
	mlp := sim.MLPFor(spec)

	sys.InstrPerCore = 30_000
	short := replayAllocs(t, encodeTrace(t, spec, sys), sys, mlp)
	sys.InstrPerCore = 120_000
	long := replayAllocs(t, encodeTrace(t, spec, sys), sys, mlp)
	const tolerance = 24 // per-core queue arrays double a few more times
	if diff := long - short; diff < -tolerance || diff > tolerance {
		t.Errorf("replay allocs grew with trace length: %v short, %v long (diff %v)", short, long, diff)
	}
}
