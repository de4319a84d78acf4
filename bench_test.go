// Benchmarks regenerating each table and figure of the paper at reduced
// cost (subsampled workloads, short streams). Each benchmark reports the
// artifact's headline number as a custom metric, so `go test -bench=.`
// doubles as a smoke regeneration of the whole evaluation; cmd/experiments
// produces the full-size series recorded in EXPERIMENTS.md.
package hybridmem

import (
	"context"
	"fmt"
	"testing"

	"hybridmem/internal/cluster"
	"hybridmem/internal/exp"
	"hybridmem/internal/obs"
	"hybridmem/internal/store"
	"hybridmem/internal/workload"
)

// benchRunner returns a low-cost runner: one workload per MPKI class,
// short instruction streams.
func benchRunner() *exp.Runner {
	r := exp.NewRunner()
	r.InstrPerCore = 60_000
	specs := workload.Specs()
	r.Subset = []workload.Spec{specs[4], specs[15], specs[29]} // lbm, xz, namd
	return r
}

func BenchmarkTab1SystemConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Tab1(16); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTab2Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if t := exp.Tab2(r); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig01WastedData(b *testing.B) {
	var waste map[int]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, waste = exp.Fig1(r)
	}
	b.ReportMetric(waste[4096]*100, "%wasted@4KB")
}

func BenchmarkFig02MotivationSweep(b *testing.B) {
	var vals map[string][3]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig2(r)
	}
	b.ReportMetric(vals["IDEAL-256"][2], "geomean-ideal256")
}

func BenchmarkFig11DesignSpace(b *testing.B) {
	var vals map[string]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig11(r)
	}
	b.ReportMetric(vals["64MB-2KB-256B"], "geomean-bestpoint")
}

func benchFig12(b *testing.B, ratio int) {
	var vals map[string][]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig12(r, ratio)
	}
	b.ReportMetric(vals["HYBRID2"][3], "geomean-hybrid2")
}

func BenchmarkFig12aSpeedup1GB(b *testing.B) { benchFig12(b, 1) }
func BenchmarkFig12bSpeedup2GB(b *testing.B) { benchFig12(b, 2) }
func BenchmarkFig12cSpeedup4GB(b *testing.B) { benchFig12(b, 4) }

func BenchmarkFig13PerBenchmark(b *testing.B) {
	var vals map[string]map[string]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig13(r)
	}
	b.ReportMetric(vals["lbm"]["HYBRID2"], "lbm-hybrid2-speedup")
}

func BenchmarkFig14Breakdown(b *testing.B) {
	var vals map[string]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig14(r)
	}
	b.ReportMetric(vals["HYBRID2"], "geomean-hybrid2")
}

func BenchmarkFig15NMServed(b *testing.B) {
	var vals map[string][]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig15(r)
	}
	b.ReportMetric(vals["HYBRID2"][3]*100, "%servedNM-hybrid2")
}

func BenchmarkFig16FMTraffic(b *testing.B) {
	var vals map[string][]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig16(r)
	}
	b.ReportMetric(vals["HYBRID2"][3], "fm-traffic-hybrid2")
}

func BenchmarkFig17NMTraffic(b *testing.B) {
	var vals map[string][]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig17(r)
	}
	b.ReportMetric(vals["HYBRID2"][3], "nm-traffic-hybrid2")
}

func BenchmarkFig18Energy(b *testing.B) {
	var vals map[string][]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Fig18(r)
	}
	b.ReportMetric(vals["HYBRID2"][3], "energy-hybrid2")
}

// sweepBenchRunner returns a fresh runner for the serial-vs-parallel
// comparison: a Fig. 2-style multi-design sweep over six workloads. The
// per-iteration seed defeats memoization across b.N iterations.
func sweepBenchRunner(parallelism int, seed uint64) *exp.Runner {
	r := exp.NewRunner()
	r.InstrPerCore = 60_000
	specs := workload.Specs()
	r.Subset = []workload.Spec{specs[0], specs[4], specs[11], specs[15], specs[22], specs[29]}
	r.Parallelism = parallelism
	r.Seed = seed
	return r
}

func benchmarkFig2Sweep(b *testing.B, parallelism int) {
	for i := 0; i < b.N; i++ {
		r := sweepBenchRunner(parallelism, uint64(i+1))
		if t, _ := exp.Fig2(r); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkSweepSerial and BenchmarkSweepParallel regenerate the same
// Figure 2 sweep with one worker and with all CPUs; comparing their
// wall-clock times measures the parallel engine's speedup.
func BenchmarkSweepSerial(b *testing.B)   { benchmarkFig2Sweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkFig2Sweep(b, 0) }

// BenchmarkDistributedSweep pushes the same multi-design sweep through
// the distributed execution plane in loopback mode — sharding, bounded
// in-flight dispatch, work-stealing and index-ordered merge, minus the
// network — with one single-threaded runner versus four. Comparing the
// two subbenchmarks measures the plane's scaling on multi-core hosts;
// on a single CPU they degenerate to the same wall clock plus dispatch
// overhead. The per-iteration seed defeats result memoization.
func BenchmarkDistributedSweep(b *testing.B) {
	designs := []string{"Baseline", "MPOD", "DFC-256", "HYBRID2"}
	workloads := []string{"cg.D", "lbm", "bwaves", "xz", "fotonik3d", "namd"}
	var runs []exp.Run
	for _, d := range designs {
		for _, w := range workloads {
			runs = append(runs, exp.Run{Design: d, Workload: w, Ratio16: 1})
		}
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("runners=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cluster.NewCoordinator(cluster.CoordinatorOptions{ShardSize: 2, MaxInFlight: 1})
				c.AttachLoopback(n, 1)
				cfg := cluster.Config{Scale: 16, InstrPerCore: 60_000, Seed: uint64(i + 1)}
				outs, err := c.Run(context.Background(), cfg, runs, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					if o.Err != "" {
						b.Fatal(o.Err)
					}
				}
			}
		})
	}
}

// BenchmarkStoreWarmSweep measures the tiered result store's payoff on
// a repeated sweep. The cold sub-benchmark simulates every run of a
// Fig. 2-style sweep into a disk-backed store (per-iteration seeds keep
// it cold); the warm-disk sub-benchmark resolves the identical sweep
// through a fresh runner — empty memo, so every result comes from the
// store's disk tier — and asserts that not a single simulation ran.
// Comparing the two is the store's speedup on repeated work.
func BenchmarkStoreWarmSweep(b *testing.B) {
	bench := func(warm bool) func(b *testing.B) {
		return func(b *testing.B) {
			st, err := store.Open(store.Options{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			if warm {
				r := sweepBenchRunner(1, 1)
				r.Store = st
				if t, _ := exp.Fig2(r); len(t.Rows) == 0 {
					b.Fatal("empty table")
				}
				b.ResetTimer()
			}
			var sims obs.Counter
			for i := 0; i < b.N; i++ {
				seed := uint64(i + 2)
				if warm {
					seed = 1
				}
				r := sweepBenchRunner(1, seed)
				r.Store = st
				r.SimCounter = &sims
				if t, _ := exp.Fig2(r); len(t.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
			if warm && sims.Value() != 0 {
				b.Fatalf("warm sweep executed %d simulations, want 0", sims.Value())
			}
		}
	}
	b.Run("cold", bench(false))
	b.Run("warm-disk", bench(true))
}

// BenchmarkRunAllParallel exercises the public sweep API end to end.
func BenchmarkRunAllParallel(b *testing.B) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 60_000
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := RunAll(cfg, SweepOptions{Workloads: []string{"cg.D", "lbm", "xz", "namd"}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 4*len(Designs()) {
			b.Fatalf("got %d results", len(res))
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-clock second on the full Hybrid2 stack.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workload.ByName("lbm")
	r := exp.NewRunner()
	r.InstrPerCore = 125_000
	for i := 0; i < b.N; i++ {
		r.Seed = uint64(i + 1) // defeat memoization
		res := r.Result(spec, "HYBRID2", 1)
		b.SetBytes(int64(res.Instructions))
	}
}

// BenchmarkAblations regenerates the design-choice sensitivity table.
func BenchmarkAblations(b *testing.B) {
	var vals map[string]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.Ablations(r)
	}
	b.ReportMetric(vals["HYBRID2"], "geomean-reference")
}

// BenchmarkExtrasRelatedWork regenerates the CAMEO/ALLOY/FOOTPRINT table.
func BenchmarkExtrasRelatedWork(b *testing.B) {
	var vals map[string][3]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.ExtrasTable(r)
	}
	b.ReportMetric(vals["FOOTPRINT"][2], "geomean-footprint")
}

// BenchmarkSeedSensitivity regenerates the multi-seed confidence table.
func BenchmarkSeedSensitivity(b *testing.B) {
	var vals map[string][3]float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		_, vals = exp.SeedSensitivity(r, []uint64{1, 2})
	}
	b.ReportMetric(vals["HYBRID2"][1], "mean-hybrid2")
}
